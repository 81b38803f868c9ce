#ifndef DATALAWYER_ANALYSIS_EVAL_H_
#define DATALAWYER_ANALYSIS_EVAL_H_

#include <unordered_map>

#include "analysis/bound_query.h"
#include "common/result.h"
#include "common/value.h"
#include "sql/ast.h"

namespace datalawyer {

/// Evaluation environment for one (joined) input row.
struct EvalContext {
  const BoundQuery* bq = nullptr;
  /// Combined row laid out by the binder's slot assignment.
  const Row* row = nullptr;
  /// Computed aggregate values for the current group, keyed by the
  /// FuncCallExpr call site; null when evaluating non-grouped expressions.
  const std::unordered_map<const Expr*, Value>* agg_values = nullptr;
};

/// Evaluates a bound expression. Comparisons and boolean connectives follow
/// SQL three-valued logic (NULLs propagate; see Value::Compare).
Result<Value> Eval(const Expr& expr, const EvalContext& ctx);

/// SQL condition truth: TRUE is true; FALSE and NULL are not. Non-boolean,
/// non-null values are a type error.
Result<bool> EvalPredicate(const Expr& expr, const EvalContext& ctx);

/// SQL LIKE with % (any sequence) and _ (any single character);
/// case-sensitive, iterative two-pointer matcher.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// Errors Eval and compiled programs (analysis/expr_program.h) share: a
/// binary operator that is neither a comparison nor arithmetic (raised
/// after both operands evaluate), and a predicate whose value is not
/// boolean.
Status UnknownOperator(const std::string& op);
Status NotAPredicate(const Expr& expr);

}  // namespace datalawyer

#endif  // DATALAWYER_ANALYSIS_EVAL_H_
