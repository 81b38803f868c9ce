#ifndef DATALAWYER_EXEC_EXECUTOR_H_
#define DATALAWYER_EXEC_EXECUTOR_H_

#include <string>

#include "analysis/bound_query.h"
#include "common/result.h"
#include "exec/plan_executor.h"
#include "exec/query_result.h"
#include "plan/optimizer.h"
#include "storage/catalog_view.h"

namespace datalawyer {

/// EXPLAIN ANALYZE of a built plan: runs it once, profiled, on a dedicated
/// PlanExecutor and renders each operator with its observed row counts,
/// wall time, peak hash-table size, and index probe/hit counts.
Result<std::string> ExplainAnalyzePlan(const PhysicalPlan& plan,
                                       const CatalogView* catalog,
                                       ExecOptions options);

/// Facade over the three-stage pipeline: bind → plan (src/plan) → interpret
/// (PlanExecutor). Keeps the historical one-call API for callers that do not
/// need to hold on to plans; the policy engine plans once per registered
/// policy and drives PlanExecutor directly through its plan cache.
class Executor {
 public:
  /// `catalog` must outlive the executor.
  explicit Executor(const CatalogView* catalog, ExecOptions options = {})
      : catalog_(catalog),
        options_(options),
        planner_(PlannerOptions{options.enable_optimizer,
                                options.enable_stats_costing}),
        exec_(catalog, options) {}

  /// Binds, plans, and executes (including any UNION chain).
  Result<QueryResult> Execute(const SelectStmt& stmt);

  /// Renders the optimized physical plan for `stmt` without running it: per
  /// relation the scan mode (index probe vs. full scan) and pushed-down
  /// predicates, per join the algorithm (hash vs. nested loop) with its
  /// keys, then the grouping / distinct / order stages.
  Result<std::string> Explain(const SelectStmt& stmt) const;

  /// EXPLAIN ANALYZE: binds and plans `stmt`, then ExplainAnalyzePlan with
  /// this executor's options.
  Result<std::string> ExplainAnalyze(const SelectStmt& stmt) const;

  /// Plans and executes an already-bound query.
  Result<QueryResult> ExecuteBound(const BoundQuery& bq);

  /// Access-path counters accumulated across this executor's Execute calls.
  const ScanStats& scan_stats() const { return exec_.scan_stats(); }

 private:
  const CatalogView* catalog_;
  ExecOptions options_;
  Planner planner_;
  PlanExecutor exec_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_EXEC_EXECUTOR_H_
