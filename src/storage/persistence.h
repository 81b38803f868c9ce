#ifndef DATALAWYER_STORAGE_PERSISTENCE_H_
#define DATALAWYER_STORAGE_PERSISTENCE_H_

#include <string>

#include "common/result.h"
#include "storage/database.h"

namespace datalawyer {

/// Plain-text table snapshots: one `<table>.dltab` file per table, a schema
/// header line followed by one tab-separated row per line. Typed cells
/// (`I:`, `D:`, `S:`, `B:`, `N:`) with backslash escaping keep the format
/// unambiguous and diff-friendly.
///
/// This is the "disk" behind the paper's semantics — the usage log is
/// flushed after each admitted query and both the data and the log survive
/// a restart. Row ids are not preserved across a reload; nothing in the
/// system depends on their values, only on their per-run stability.

/// Writes one table to `path`, replacing any existing file.
Status SaveTable(const Table& table, const std::string& path);

/// Appends the rows of `path` into `table` (column types must match). The
/// whole file is checked first: a load that fails leaves `table` unchanged.
Status LoadTableInto(Table* table, const std::string& path);

/// Reads and checks `path` and returns its schema (an empty table shape).
Result<TableSchema> LoadSchema(const std::string& path);

/// Saves every table of `db` into `dir` (created if missing).
Status SaveDatabase(const Database& db, const std::string& dir);

/// Loads every `*.dltab` under `dir` into `db` as new tables; on error,
/// `db` is unchanged.
Status LoadDatabase(Database* db, const std::string& dir);

}  // namespace datalawyer

#endif  // DATALAWYER_STORAGE_PERSISTENCE_H_
