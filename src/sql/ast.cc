#include "sql/ast.h"

#include "common/strings.h"

namespace datalawyer {

void Expr::Visit(const std::function<void(const Expr&)>& fn) const {
  fn(*this);
  switch (kind_) {
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(*this);
      b.lhs->Visit(fn);
      b.rhs->Visit(fn);
      break;
    }
    case ExprKind::kUnary:
      static_cast<const UnaryExpr&>(*this).operand->Visit(fn);
      break;
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(*this);
      for (const auto& arg : f.args) arg->Visit(fn);
      break;
    }
    case ExprKind::kIsNull:
      static_cast<const IsNullExpr&>(*this).operand->Visit(fn);
      break;
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(*this);
      in.operand->Visit(fn);
      for (const auto& item : in.items) item->Visit(fn);
      break;
    }
    case ExprKind::kLike:
      static_cast<const LikeExpr&>(*this).operand->Visit(fn);
      break;
    default:
      break;
  }
}

ExprPtr InListExpr::Clone() const {
  std::vector<ExprPtr> cloned;
  cloned.reserve(items.size());
  for (const auto& item : items) cloned.push_back(item->Clone());
  return std::make_unique<InListExpr>(operand->Clone(), std::move(cloned),
                                      negated);
}

std::string InListExpr::ToString() const {
  std::string out = "(" + operand->ToString() + (negated ? " NOT IN (" : " IN (");
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i]->ToString();
  }
  out += "))";
  return out;
}

std::string BinaryExpr::ToString() const {
  // Keywords uppercased for readability; operators inline.
  std::string opstr = (op == "and" || op == "or") ? " " + ToLower(op) + " "
                                                  : " " + op + " ";
  if (op == "and" || op == "or") {
    opstr = op == "and" ? " AND " : " OR ";
  }
  return "(" + lhs->ToString() + opstr + rhs->ToString() + ")";
}

ExprPtr FuncCallExpr::Clone() const {
  std::vector<ExprPtr> cloned;
  cloned.reserve(args.size());
  for (const auto& a : args) cloned.push_back(a->Clone());
  return std::make_unique<FuncCallExpr>(name, distinct, star,
                                        std::move(cloned));
}

std::string FuncCallExpr::ToString() const {
  std::string out = name + "(";
  if (distinct) out += "DISTINCT ";
  if (star) {
    out += "*";
  } else {
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) out += ", ";
      out += args[i]->ToString();
    }
  }
  out += ")";
  return out;
}

bool FuncCallExpr::IsAggregate() const {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

TableRef TableRef::Clone() const {
  TableRef out;
  out.table_name = table_name;
  out.alias = alias;
  if (subquery) out.subquery = subquery->Clone();
  return out;
}

std::string TableRef::ToString() const {
  std::string out;
  if (IsSubquery()) {
    out = "(" + subquery->ToString() + ")";
  } else {
    out = table_name;
  }
  if (!alias.empty() && alias != table_name) out += " " + alias;
  return out;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = distinct;
  for (const auto& e : distinct_on) out->distinct_on.push_back(e->Clone());
  for (const auto& item : items) out->items.push_back(item.Clone());
  for (const auto& ref : from) out->from.push_back(ref.Clone());
  if (where) out->where = where->Clone();
  for (const auto& e : group_by) out->group_by.push_back(e->Clone());
  if (having) out->having = having->Clone();
  for (const auto& o : order_by) out->order_by.push_back(o.Clone());
  out->limit = limit;
  if (union_next) out->union_next = union_next->Clone();
  out->union_all = union_all;
  return out;
}

namespace {

/// One member's SELECT ... HAVING text, without ORDER BY / LIMIT.
std::string SelectCoreToString(const SelectStmt& s) {
  std::string out = "SELECT ";
  if (!s.distinct_on.empty()) {
    out += "DISTINCT ON (";
    for (size_t i = 0; i < s.distinct_on.size(); ++i) {
      if (i > 0) out += ", ";
      out += s.distinct_on[i]->ToString();
    }
    out += ") ";
  } else if (s.distinct) {
    out += "DISTINCT ";
  }
  for (size_t i = 0; i < s.items.size(); ++i) {
    if (i > 0) out += ", ";
    out += s.items[i].expr->ToString();
    if (!s.items[i].alias.empty()) out += " AS " + s.items[i].alias;
  }
  if (!s.from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < s.from.size(); ++i) {
      if (i > 0) out += ", ";
      out += s.from[i].ToString();
    }
  }
  if (s.where) out += " WHERE " + s.where->ToString();
  if (!s.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < s.group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += s.group_by[i]->ToString();
    }
  }
  if (s.having) out += " HAVING " + s.having->ToString();
  return out;
}

}  // namespace

std::string SelectStmt::ToString() const {
  // The head's ORDER BY / LIMIT orders the whole UNION chain, so it is
  // written after the last member.
  std::string out = SelectCoreToString(*this);
  for (const SelectStmt* m = this; m->union_next; m = m->union_next.get()) {
    out += m->union_all ? " UNION ALL " : " UNION ";
    out += SelectCoreToString(*m->union_next);
  }
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (!order_by[i].ascending) out += " DESC";
    }
  }
  if (limit.has_value()) out += " LIMIT " + std::to_string(*limit);
  return out;
}

std::vector<ExprPtr> SplitConjuncts(const Expr& expr) {
  std::vector<ExprPtr> out;
  if (expr.kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(expr);
    if (b.op == "and") {
      auto left = SplitConjuncts(*b.lhs);
      auto right = SplitConjuncts(*b.rhs);
      for (auto& e : left) out.push_back(std::move(e));
      for (auto& e : right) out.push_back(std::move(e));
      return out;
    }
  }
  out.push_back(expr.Clone());
  return out;
}

std::vector<const Expr*> ConjunctPtrs(const Expr& expr) {
  std::vector<const Expr*> out;
  if (expr.kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(expr);
    if (b.op == "and") {
      auto left = ConjunctPtrs(*b.lhs);
      auto right = ConjunctPtrs(*b.rhs);
      out.insert(out.end(), left.begin(), left.end());
      out.insert(out.end(), right.begin(), right.end());
      return out;
    }
  }
  out.push_back(&expr);
  return out;
}

ExprPtr AndTogether(std::vector<ExprPtr> conjuncts) {
  ExprPtr out;
  for (auto& c : conjuncts) {
    if (!out) {
      out = std::move(c);
    } else {
      out = std::make_unique<BinaryExpr>("and", std::move(out), std::move(c));
    }
  }
  return out;
}

std::vector<std::string> CollectQualifiers(const Expr& expr) {
  std::vector<std::string> out;
  expr.Visit([&](const Expr& e) {
    if (e.kind() == ExprKind::kColumnRef) {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      std::string q = ToLower(c.qualifier);
      bool found = false;
      for (const auto& existing : out) {
        if (existing == q) {
          found = true;
          break;
        }
      }
      if (!found) out.push_back(q);
    }
  });
  return out;
}

bool ReferencesAnyQualifier(const Expr& expr,
                            const std::vector<std::string>& qualifiers) {
  bool found = false;
  expr.Visit([&](const Expr& e) {
    if (found) return;
    if (e.kind() == ExprKind::kColumnRef) {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      for (const auto& q : qualifiers) {
        if (EqualsIgnoreCase(c.qualifier, q)) {
          found = true;
          return;
        }
      }
    }
  });
  return found;
}

bool ContainsAggregate(const Expr& expr) {
  bool found = false;
  expr.Visit([&](const Expr& e) {
    if (e.kind() == ExprKind::kFuncCall &&
        static_cast<const FuncCallExpr&>(e).IsAggregate()) {
      found = true;
    }
  });
  return found;
}

}  // namespace datalawyer
