#include "core/plan_cache.h"

#include "analysis/binder.h"
#include "policy/incremental.h"

namespace datalawyer {

PlanCache::Entry::Entry() = default;
PlanCache::Entry::~Entry() = default;

PlanCache::Entry& PlanCache::Warm(const SelectStmt& stmt,
                                  const CatalogView* catalog,
                                  const Planner& planner) {
  auto entry = std::make_unique<Entry>();
  Binder binder(catalog);
  Result<std::unique_ptr<BoundQuery>> bound = binder.Bind(stmt);
  Result<PhysicalPlan> plan =
      bound.ok() ? planner.Plan(**bound) : Result<PhysicalPlan>(bound.status());
  if (plan.ok()) {
    entry->bound = std::move(*bound);
    entry->plan = std::move(*plan);
  } else {
    entry->status = plan.status();
  }
  return *(entries_[&stmt] = std::move(entry));
}

}  // namespace datalawyer
