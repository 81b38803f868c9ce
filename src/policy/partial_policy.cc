#include "policy/partial_policy.h"

#include "common/strings.h"
#include "common/trace.h"
#include "policy/policy_analyzer.h"

namespace datalawyer {

namespace {

/// True if `expr` mentions an unqualified column reference.
bool HasUnqualifiedRef(const Expr& expr) {
  bool found = false;
  expr.Visit([&](const Expr& e) {
    if (e.kind() == ExprKind::kColumnRef &&
        static_cast<const ColumnRefExpr&>(e).qualifier.empty()) {
      found = true;
    }
    if (e.kind() == ExprKind::kStar &&
        static_cast<const StarExpr&>(e).qualifier.empty()) {
      found = true;
    }
  });
  return found;
}

/// True if `expr` holds an aggregate other than COUNT(DISTINCT ...). Such an
/// aggregate counts or sums joined rows, so removing any FROM item changes
/// its value in either direction — COUNT(*) over an emptied FROM counts one
/// row and would prune every query. A distinct count over the surviving
/// columns can only grow, so `COUNT(DISTINCT u.uid) > k` stays a relaxation
/// (the paper's P2c, Example 4.5).
bool HasRowCountingAggregate(const Expr& expr) {
  bool found = false;
  expr.Visit([&](const Expr& e) {
    if (e.kind() != ExprKind::kFuncCall) return;
    const auto& call = static_cast<const FuncCallExpr&>(e);
    if (call.IsAggregate() && !(call.name == "count" && call.distinct)) {
      found = true;
    }
  });
  return found;
}

/// True if `expr` must be dropped: it references a removed alias, holds a
/// row-counting aggregate, or has unqualified references while something
/// was removed.
bool MustDrop(const Expr& expr, const std::vector<std::string>& removed) {
  if (removed.empty()) return false;
  if (ReferencesAnyQualifier(expr, removed)) return true;
  if (HasRowCountingAggregate(expr)) return true;
  bool star_removed = false;
  expr.Visit([&](const Expr& e) {
    if (e.kind() == ExprKind::kStar) {
      const auto& s = static_cast<const StarExpr&>(e);
      for (const std::string& r : removed) {
        if (EqualsIgnoreCase(s.qualifier, r)) star_removed = true;
      }
    }
  });
  if (star_removed) return true;
  return HasUnqualifiedRef(expr);
}

void RewriteMember(SelectStmt* member, const UsageLog& log,
                   const std::set<std::string>& available) {
  // Decide which FROM items go.
  std::vector<std::string> removed;
  std::vector<TableRef> kept_from;
  for (TableRef& ref : member->from) {
    bool drop = false;
    if (ref.IsSubquery()) {
      for (const std::string& rel : CollectLogRelations(*ref.subquery, log)) {
        if (!available.count(rel)) drop = true;
      }
      if (!drop) {
        // The subquery may still be fine as-is (all its logs available).
        kept_from.push_back(std::move(ref));
        continue;
      }
    } else if (log.IsLogRelation(ref.table_name) &&
               !available.count(ToLower(ref.table_name))) {
      drop = true;
    }
    if (drop) {
      removed.push_back(ToLower(ref.BindingName()));
    } else {
      kept_from.push_back(std::move(ref));
    }
  }
  member->from = std::move(kept_from);
  if (removed.empty()) return;

  // WHERE: keep only conjuncts free of removed aliases.
  if (member->where != nullptr) {
    std::vector<ExprPtr> kept;
    for (ExprPtr& conj : SplitConjuncts(*member->where)) {
      if (!MustDrop(*conj, removed)) kept.push_back(std::move(conj));
    }
    member->where = AndTogether(std::move(kept));
  }

  // HAVING goes whole if it touches a removed relation (§4.2.1).
  if (member->having != nullptr && MustDrop(*member->having, removed)) {
    member->having = nullptr;
  }

  // GROUP BY keys over removed relations vanish.
  {
    std::vector<ExprPtr> kept;
    for (ExprPtr& e : member->group_by) {
      if (!MustDrop(*e, removed)) kept.push_back(std::move(e));
    }
    member->group_by = std::move(kept);
  }

  // DISTINCT ON keys likewise; an emptied list degrades to plain DISTINCT.
  if (!member->distinct_on.empty()) {
    std::vector<ExprPtr> kept;
    for (ExprPtr& e : member->distinct_on) {
      if (!MustDrop(*e, removed)) kept.push_back(std::move(e));
    }
    member->distinct_on = std::move(kept);
    if (member->distinct_on.empty()) member->distinct = true;
  }

  // Select items referencing removed relations vanish; never select nothing.
  {
    std::vector<SelectItem> kept;
    for (SelectItem& item : member->items) {
      if (!MustDrop(*item.expr, removed)) kept.push_back(std::move(item));
    }
    member->items = std::move(kept);
    if (member->items.empty()) {
      member->items.push_back(SelectItem{
          std::make_unique<LiteralExpr>(Value(int64_t{1})), "probe"});
    }
  }

  // ORDER BY is irrelevant to policy truth; drop anything unsafe.
  {
    std::vector<OrderByItem> kept;
    for (OrderByItem& item : member->order_by) {
      if (!MustDrop(*item.expr, removed)) kept.push_back(std::move(item));
    }
    member->order_by = std::move(kept);
  }
}

}  // namespace

std::unique_ptr<SelectStmt> BuildPartialPolicy(
    const SelectStmt& stmt, const UsageLog& log,
    const std::set<std::string>& available) {
  DL_TRACE_SPAN("policy.partial_build", "policy");
  std::unique_ptr<SelectStmt> out = stmt.Clone();
  for (SelectStmt* member = out.get(); member != nullptr;
       member = member->union_next.get()) {
    // Rewrite surviving subqueries recursively first (their log relations
    // are all available or the whole item is dropped by RewriteMember).
    RewriteMember(member, log, available);
    for (TableRef& ref : member->from) {
      if (ref.IsSubquery()) {
        ref.subquery = BuildPartialPolicy(*ref.subquery, log, available);
      }
    }
  }
  return out;
}

}  // namespace datalawyer
