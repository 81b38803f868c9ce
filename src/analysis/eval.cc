#include "analysis/eval.h"

#include <cctype>

namespace datalawyer {

namespace {

/// Three-valued AND/OR. Operands must be BOOL or NULL.
Result<Value> EvalLogical(const BinaryExpr& b, const EvalContext& ctx) {
  DL_ASSIGN_OR_RETURN(Value lhs, Eval(*b.lhs, ctx));
  // Short-circuit where the result is determined by one side.
  if (b.op == "and") {
    if (lhs.is_bool() && !lhs.AsBool()) return Value(false);
  } else {
    if (lhs.is_bool() && lhs.AsBool()) return Value(true);
  }
  DL_ASSIGN_OR_RETURN(Value rhs, Eval(*b.rhs, ctx));
  auto check = [](const Value& v) -> Status {
    if (!v.is_bool() && !v.is_null()) {
      return Status::TypeError("boolean operator over non-boolean value");
    }
    return Status::OK();
  };
  DL_RETURN_NOT_OK(check(lhs));
  DL_RETURN_NOT_OK(check(rhs));
  if (b.op == "and") {
    if (rhs.is_bool() && !rhs.AsBool()) return Value(false);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value(true);
  }
  if (rhs.is_bool() && rhs.AsBool()) return Value(true);
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  return Value(false);
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> Eval(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value;
    case ExprKind::kColumnRef: {
      if (ctx.bq == nullptr) {
        return Status::InvalidArgument(
            "column reference in a constant-only context: " + expr.ToString());
      }
      auto it = ctx.bq->column_slots.find(&expr);
      if (it == ctx.bq->column_slots.end()) {
        return Status::Internal("unbound column reference: " +
                                expr.ToString());
      }
      if (ctx.row == nullptr || it->second >= ctx.row->size()) {
        return Status::Internal("evaluation row too narrow for " +
                                expr.ToString());
      }
      return (*ctx.row)[it->second];
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is not a value expression");
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      if (b.op == "and" || b.op == "or") return EvalLogical(b, ctx);
      DL_ASSIGN_OR_RETURN(Value lhs, Eval(*b.lhs, ctx));
      DL_ASSIGN_OR_RETURN(Value rhs, Eval(*b.rhs, ctx));
      CompareOp cmp;
      if (ParseCompareOp(b.op, &cmp)) return Value::Compare(lhs, cmp, rhs);
      ArithOp arith;
      if (ParseArithOp(b.op, &arith)) {
        return Value::Arithmetic(lhs, arith, rhs);
      }
      return UnknownOperator(b.op);
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      DL_ASSIGN_OR_RETURN(Value v, Eval(*u.operand, ctx));
      if (u.op == "not") {
        if (v.is_null()) return Value::Null();
        if (!v.is_bool()) return Status::TypeError("NOT over non-boolean");
        return Value(!v.AsBool());
      }
      // Unary minus.
      if (v.is_null()) return Value::Null();
      if (v.is_int64()) return Value(-v.AsInt64());
      if (v.is_double()) return Value(-v.AsDouble());
      return Status::TypeError("unary '-' over non-numeric value");
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(expr);
      DL_ASSIGN_OR_RETURN(Value v, Eval(*n.operand, ctx));
      return Value(n.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kInList: {
      // SQL semantics: x IN (a, b) ≡ x = a OR x = b, with three-valued
      // logic (an unmatched NULL item makes the answer NULL, not FALSE).
      const auto& in = static_cast<const InListExpr&>(expr);
      DL_ASSIGN_OR_RETURN(Value operand, Eval(*in.operand, ctx));
      if (operand.is_null()) return Value::Null();
      bool saw_null = false;
      for (const ExprPtr& item : in.items) {
        DL_ASSIGN_OR_RETURN(Value v, Eval(*item, ctx));
        DL_ASSIGN_OR_RETURN(Value eq,
                            Value::Compare(operand, CompareOp::kEq, v));
        if (eq.is_null()) {
          saw_null = true;
        } else if (eq.AsBool()) {
          return Value(!in.negated);
        }
      }
      if (saw_null) return Value::Null();
      return Value(in.negated);
    }
    case ExprKind::kLike: {
      const auto& like = static_cast<const LikeExpr&>(expr);
      DL_ASSIGN_OR_RETURN(Value v, Eval(*like.operand, ctx));
      if (v.is_null()) return Value::Null();
      if (!v.is_string()) {
        return Status::TypeError("LIKE requires a string operand, got " +
                                 v.ToString());
      }
      bool matched = LikeMatch(v.AsString(), like.pattern);
      return Value(like.negated ? !matched : matched);
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(expr);
      if (f.IsAggregate()) {
        if (ctx.agg_values == nullptr) {
          return Status::Internal("aggregate evaluated outside a group: " +
                                  f.ToString());
        }
        auto it = ctx.agg_values->find(&expr);
        if (it == ctx.agg_values->end()) {
          return Status::Internal("aggregate value missing for " +
                                  f.ToString());
        }
        return it->second;
      }
      // Scalar functions (validated to one argument by the binder).
      if (f.name == "lower" || f.name == "upper" || f.name == "length" ||
          f.name == "abs") {
        DL_ASSIGN_OR_RETURN(Value v, Eval(*f.args[0], ctx));
        if (v.is_null()) return Value::Null();
        if (f.name == "abs") {
          if (v.is_int64()) {
            int64_t x = v.AsInt64();
            return Value(x < 0 ? -x : x);
          }
          if (v.is_double()) {
            double x = v.AsDouble();
            return Value(x < 0 ? -x : x);
          }
          return Status::TypeError("abs over non-numeric value");
        }
        if (!v.is_string()) {
          return Status::TypeError(f.name + " over non-string value " +
                                   v.ToString());
        }
        if (f.name == "length") return Value(int64_t(v.AsString().size()));
        std::string out = v.AsString();
        for (char& c : out) {
          c = f.name == "lower"
                  ? char(std::tolower(static_cast<unsigned char>(c)))
                  : char(std::toupper(static_cast<unsigned char>(c)));
        }
        return Value(std::move(out));
      }
      return Status::Unsupported("unknown function: " + f.name);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalPredicate(const Expr& expr, const EvalContext& ctx) {
  DL_ASSIGN_OR_RETURN(Value v, Eval(expr, ctx));
  if (v.is_bool()) return v.AsBool();
  if (v.is_null()) return false;
  return NotAPredicate(expr);
}

Status UnknownOperator(const std::string& op) {
  return Status::InvalidArgument("unknown operator: " + op);
}

Status NotAPredicate(const Expr& expr) {
  return Status::TypeError("predicate did not evaluate to a boolean: " +
                           expr.ToString());
}

}  // namespace datalawyer
