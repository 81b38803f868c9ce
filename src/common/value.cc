#include "common/value.h"

#include <cmath>
#include <functional>
#include <sstream>
#include <utility>

namespace datalawyer {

namespace {

/// Rank used by the cross-type total order.
int TypeRank(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 2;
    case ValueType::kString:
      return 3;
  }
  return 4;
}

}  // namespace

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kBool:
      return "BOOL";
  }
  return "UNKNOWN";
}

ValueType Value::type() const {
  if (is_null()) return ValueType::kNull;
  if (is_int64()) return ValueType::kInt64;
  if (is_double()) return ValueType::kDouble;
  if (is_string()) return ValueType::kString;
  return ValueType::kBool;
}

bool Value::operator<(const Value& other) const {
  int lr = TypeRank(*this), rr = TypeRank(other);
  if (lr != rr) return lr < rr;
  switch (lr) {
    case 0:
      return false;  // NULL == NULL
    case 1:
      return AsBool() < other.AsBool();
    case 2: {
      // Mixed int/double compare numerically; same-type compares exactly.
      if (is_int64() && other.is_int64()) return AsInt64() < other.AsInt64();
      return ToDouble() < other.ToDouble();
    }
    default:
      return AsString() < other.AsString();
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kBool:
      return std::hash<bool>()(AsBool()) ^ 0x5bul;
    case ValueType::kInt64: {
      // Hash integral doubles and int64 alike.
      return std::hash<double>()(double(AsInt64()));
    }
    case ValueType::kDouble:
      return std::hash<double>()(AsDouble());
    case ValueType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

constexpr std::pair<const char*, CompareOp> kCompareOps[] = {
    {"=", CompareOp::kEq}, {"!=", CompareOp::kNe}, {"<>", CompareOp::kNe},
    {"<", CompareOp::kLt}, {"<=", CompareOp::kLe}, {">", CompareOp::kGt},
    {">=", CompareOp::kGe}};

bool ParseCompareOp(const std::string& op, CompareOp* out) {
  for (const auto& [text, value] : kCompareOps) {
    if (op == text) {
      *out = value;
      return true;
    }
  }
  return false;
}

const char* CompareOpText(CompareOp op) {
  for (const auto& [text, value] : kCompareOps) {
    if (value == op) return text;
  }
  return "?";
}

CompareOp MirrorCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

bool ParseArithOp(const std::string& op, ArithOp* out) {
  static const std::pair<const char*, ArithOp> kOps[] = {
      {"+", ArithOp::kAdd}, {"-", ArithOp::kSub}, {"*", ArithOp::kMul},
      {"/", ArithOp::kDiv}, {"%", ArithOp::kMod}};
  for (const auto& [text, value] : kOps) {
    if (op == text) {
      *out = value;
      return true;
    }
  }
  return false;
}

bool Value::SqlOrder(const Value& lhs, const Value& rhs, int* cmp) {
  if (lhs.is_int64() && rhs.is_int64()) {
    int64_t a = lhs.AsInt64(), b = rhs.AsInt64();
    *cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs.is_numeric() && rhs.is_numeric()) {
    double a = lhs.ToDouble(), b = rhs.ToDouble();
    *cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs.is_string() && rhs.is_string()) {
    int c = lhs.AsString().compare(rhs.AsString());
    *cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
  } else if (lhs.is_bool() && rhs.is_bool()) {
    *cmp = int(lhs.AsBool()) - int(rhs.AsBool());
  } else {
    return false;
  }
  return true;
}

Status Value::IncomparableError(const Value& lhs, const Value& rhs) {
  return Status::TypeError("cannot compare " +
                           std::string(ValueTypeToString(lhs.type())) +
                           " with " + ValueTypeToString(rhs.type()));
}

bool Value::Holds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

Result<Value> Value::Compare(const Value& lhs, CompareOp op,
                             const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  int cmp = 0;
  if (!SqlOrder(lhs, rhs, &cmp)) return IncomparableError(lhs, rhs);
  return Value(Holds(op, cmp));
}

Result<Value> Value::Arithmetic(const Value& lhs, ArithOp op,
                                const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    return Status::TypeError("arithmetic requires numeric operands, got " +
                             std::string(ValueTypeToString(lhs.type())) +
                             " and " + ValueTypeToString(rhs.type()));
  }

  if (lhs.is_int64() && rhs.is_int64()) {
    int64_t a = lhs.AsInt64(), b = rhs.AsInt64();
    switch (op) {
      case ArithOp::kAdd:
        return Value(a + b);
      case ArithOp::kSub:
        return Value(a - b);
      case ArithOp::kMul:
        return Value(a * b);
      case ArithOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value(a / b);
      case ArithOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        return Value(a % b);
    }
  }
  double a = lhs.ToDouble(), b = rhs.ToDouble();
  switch (op) {
    case ArithOp::kAdd:
      return Value(a + b);
    case ArithOp::kSub:
      return Value(a - b);
    case ArithOp::kMul:
      return Value(a * b);
    case ArithOp::kDiv:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      return Value(a / b);
    case ArithOp::kMod:
      if (b == 0.0) return Status::InvalidArgument("modulo by zero");
      return Value(std::fmod(a, b));
  }
  return Status::Internal("unhandled arithmetic operator");
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
    case ValueType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
  }
  return "?";
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace datalawyer
