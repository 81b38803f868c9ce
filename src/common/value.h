#ifndef DATALAWYER_COMMON_VALUE_H_
#define DATALAWYER_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace datalawyer {

/// SQL value types supported by the engine.
enum class ValueType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
  kBool,
};

/// Returns e.g. "INT64".
const char* ValueTypeToString(ValueType type);

/// SQL comparison operators.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// SQL arithmetic operators.
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

/// Maps operator text ("=", "!=", "<>", "<", "<=", ">", ">=") to its enum;
/// false for anything else.
bool ParseCompareOp(const std::string& op, CompareOp* out);

/// The operator's text, as ParseCompareOp reads it ("!=" for kNe).
const char* CompareOpText(CompareOp op);

/// The operator with its operands swapped: `a OP b` is `b MIRROR(OP) a`.
CompareOp MirrorCompareOp(CompareOp op);

/// Maps operator text ("+", "-", "*", "/", "%") to its enum; false for
/// anything else.
bool ParseArithOp(const std::string& op, ArithOp* out);

/// A dynamically typed SQL value. Timestamps are plain INT64 (the paper's
/// integer clock, §3.1). NULL ordering/equality follows three-valued logic
/// in expressions; for grouping and DISTINCT, NULLs compare equal (SQL
/// semantics for grouping).
class Value {
 public:
  /// NULL value.
  Value() : repr_(std::monostate{}) {}
  Value(int64_t v) : repr_(v) {}                   // NOLINT(runtime/explicit)
  Value(double v) : repr_(v) {}                    // NOLINT(runtime/explicit)
  Value(bool v) : repr_(v) {}                      // NOLINT(runtime/explicit)
  Value(std::string v) : repr_(std::move(v)) {}    // NOLINT(runtime/explicit)
  Value(const char* v) : repr_(std::string(v)) {}  // NOLINT(runtime/explicit)

  static Value Null() { return Value(); }

  ValueType type() const;

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }
  bool is_bool() const { return std::holds_alternative<bool>(repr_); }
  /// True for INT64 or DOUBLE.
  bool is_numeric() const { return is_int64() || is_double(); }

  /// Require the corresponding type; undefined otherwise.
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  bool AsBool() const { return std::get<bool>(repr_); }

  /// Numeric value widened to double. Requires is_numeric().
  double ToDouble() const { return is_int64() ? double(AsInt64()) : AsDouble(); }

  /// Structural equality: same type and same contents; NULL == NULL.
  /// This is the grouping/DISTINCT notion of equality, not SQL `=`.
  bool operator==(const Value& other) const { return repr_ == other.repr_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order over values for deterministic sorting: NULL < BOOL <
  /// numerics (compared as doubles across int/double) < STRING.
  bool operator<(const Value& other) const;

  /// Hash consistent with operator==, except int64/double holding the same
  /// number hash alike (so 1 and 1.0 can meet in a hash join probe).
  size_t Hash() const;

  /// SQL comparison: returns NULL if either side is NULL, a kTypeError for
  /// incomparable types, else a BOOL.
  static Result<Value> Compare(const Value& lhs, CompareOp op,
                               const Value& rhs);

  /// Compare's non-NULL core without a Result: sets *cmp to -1, 0 or 1 and
  /// returns true, or returns false when the types are incomparable (then
  /// IncomparableError(lhs, rhs) is Compare's error).
  static bool SqlOrder(const Value& lhs, const Value& rhs, int* cmp);
  static Status IncomparableError(const Value& lhs, const Value& rhs);
  /// Whether `op` holds for a SqlOrder result.
  static bool Holds(CompareOp op, int cmp);

  /// SQL arithmetic. NULL-in → NULL-out. Division or modulo by zero is a
  /// kInvalidArgument error.
  static Result<Value> Arithmetic(const Value& lhs, ArithOp op,
                                  const Value& rhs);

  /// Renders the value as it would appear in a result set ("NULL", 42,
  /// 3.5, 'text', TRUE).
  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, bool> repr_;
};

/// A tuple of values: one table/result row.
using Row = std::vector<Value>;

// Hash functors over values and rows live in common/value_hash.h (ValueHash,
// RowHash) so the hash-join, GROUP BY, DISTINCT, and index-probe call sites
// share one definition.

/// Renders "(v1, v2, ...)".
std::string RowToString(const Row& row);

}  // namespace datalawyer

#endif  // DATALAWYER_COMMON_VALUE_H_
