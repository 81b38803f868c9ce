#include "exec/executor.h"

#include <chrono>
#include <memory>

#include "analysis/binder.h"

namespace datalawyer {

Result<QueryResult> Executor::Execute(const SelectStmt& stmt) {
  Binder binder(catalog_);
  DL_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bq, binder.Bind(stmt));
  return ExecuteBound(*bq);
}

Result<QueryResult> Executor::ExecuteBound(const BoundQuery& bq) {
  DL_ASSIGN_OR_RETURN(PhysicalPlan plan, planner_.Plan(bq));
  return exec_.Run(plan);
}

Result<std::string> Executor::Explain(const SelectStmt& stmt) const {
  Binder binder(catalog_);
  DL_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound, binder.Bind(stmt));
  DL_ASSIGN_OR_RETURN(PhysicalPlan plan, planner_.Plan(*bound));
  return RenderPhysicalPlan(plan, catalog_);
}

Result<std::string> Executor::ExplainAnalyze(const SelectStmt& stmt) const {
  Binder binder(catalog_);
  DL_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound, binder.Bind(stmt));
  DL_ASSIGN_OR_RETURN(PhysicalPlan plan, planner_.Plan(*bound));
  return ExplainAnalyzePlan(plan, catalog_, options_);
}

Result<std::string> ExplainAnalyzePlan(const PhysicalPlan& plan,
                                       const CatalogView* catalog,
                                       ExecOptions options) {
  PlanExecutor exec(catalog, options);
  exec.EnableProfiling();
  auto t0 = std::chrono::steady_clock::now();
  DL_ASSIGN_OR_RETURN(QueryResult result, exec.Run(plan));
  std::chrono::duration<double, std::micro> total_us =
      std::chrono::steady_clock::now() - t0;
  std::string out = RenderOperatorProfile(exec.profile(), total_us.count());
  out += "  result: " + std::to_string(result.rows.size()) + " rows\n";
  return out;
}

}  // namespace datalawyer
