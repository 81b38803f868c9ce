#ifndef DATALAWYER_COMMON_STRINGS_H_
#define DATALAWYER_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace datalawyer {

/// ASCII-lowercases a copy of `s`. SQL identifiers and keywords are
/// case-insensitive throughout the engine.
std::string ToLower(const std::string& s);

/// Case-insensitive ASCII string equality.
bool EqualsIgnoreCase(const std::string& a, const std::string& b);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Appends `s` to `*out` escaped for inclusion inside a JSON string literal
/// (quotes, backslashes, and control characters; the surrounding quotes are
/// the caller's). Shared by every JSON writer in the system — trace export,
/// metrics snapshots, decision records, and the bench harness — so
/// labels carrying SQL fragments or policy names can never corrupt a
/// document.
void AppendJsonEscaped(std::string* out, const std::string& s);

/// Returns `s` escaped for a JSON string literal (see AppendJsonEscaped).
std::string JsonEscape(const std::string& s);

/// Escapes `s` for one field of a tab-separated line: backslash, tab, LF
/// and CR become two-character escape sequences, so a field can carry
/// arbitrary query text without corrupting the row or the file. Used by
/// the decision store's audit-trail TSV (and any future line-oriented
/// format).
std::string TsvEscape(const std::string& s);

/// Inverse of TsvEscape. Unknown escape sequences keep the escaped
/// character verbatim; a trailing lone backslash is preserved.
std::string TsvUnescape(const std::string& s);

/// Splits `line` on unescaped occurrences of `delim` (escape character is
/// backslash: "\\t" does not split a tab-delimited line). Fields are
/// returned still escaped; callers unescape with TsvUnescape.
std::vector<std::string> SplitEscaped(const std::string& line, char delim);

/// Strict numeric field parsers shared by the on-disk loaders: the whole of
/// `s` must parse — no leading blanks, no trailing garbage, no overflow, no
/// inf/nan. `*out` is written only on success.
bool ParseWhole(const std::string& s, int64_t* out);
bool ParseWhole(const std::string& s, double* out);

/// 64-bit FNV-1a hash of `s` — stable across runs and platforms, used for
/// compact query fingerprints in decision records.
uint64_t Fnv1a64(const std::string& s);

}  // namespace datalawyer

#endif  // DATALAWYER_COMMON_STRINGS_H_
