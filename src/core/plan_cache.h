#ifndef DATALAWYER_CORE_PLAN_CACHE_H_
#define DATALAWYER_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "analysis/bound_query.h"
#include "common/result.h"
#include "plan/optimizer.h"
#include "plan/physical.h"
#include "storage/catalog_view.h"

namespace datalawyer {

class IncrementalState;

/// Per-policy physical-plan cache: every registered policy statement
/// (full, guard, partial, the unified UNION statement, and the witness
/// bodies) is bound and planned once at Prepare time, then re-executed
/// directly per user query. It is the only way these statements run, so
/// steady-state evaluation does no parse/bind/plan work at all.
///
/// Keys are SelectStmt pointers: the policy engine owns its statements for
/// the lifetime of a prepared set, so pointer identity is exact and free.
/// Entries keep their BoundQuery alive (the plan references its slots),
/// but the BoundRelation::relation pointers inside go stale as soon as the
/// warming catalog dies — PlanExecutor re-resolves relations by name, so
/// they are never dereferenced.
///
/// Thread safety by phasing: Warm/Clear only run in the serial sections
/// (Prepare, or a revalidation at the head of ExecuteChecked or of a policy
/// EXPLAIN), Lookup is a const read and safe from the policy-evaluation
/// thread pool.
///
/// Invalidation: the cache carries a stamp (database schema version +
/// whether log indexes are enabled); the owner compares it against the
/// live stamp before trusting Lookup and rewarm on mismatch.
class PlanCache {
 public:
  struct Entry {
    Entry();   // out-of-line: IncrementalState is incomplete here
    ~Entry();
    Entry(Entry&&) = default;
    Entry& operator=(Entry&&) = default;

    /// The bind or plan error of a statement that failed to warm; running
    /// the entry returns it. `bound` and `plan` are empty then.
    Status status;
    std::unique_ptr<BoundQuery> bound;
    PhysicalPlan plan;
    /// Incremental-evaluation state for this plan, or nullptr when the
    /// statement classified full-only (or the feature is off). Owned here
    /// so the existing Clear()-on-stamp-mismatch machinery is also the
    /// incremental invalidation path: DDL, index-flag, and stats-drift
    /// version bumps destroy the state with the plan it belongs to.
    std::unique_ptr<IncrementalState> incremental;
  };

  /// Binds and plans `stmt` against `catalog`, storing the entry under
  /// &stmt. A statement that fails to bind or plan still gets an entry,
  /// holding the failure as its `status`: every later run of it returns
  /// that error until the next warm (e.g. a DROP TABLE the statement reads
  /// yields "no such table" on every query, not a stale plan). Returns the
  /// entry, for the serial warm to attach IncrementalState to.
  Entry& Warm(const SelectStmt& stmt, const CatalogView* catalog,
              const Planner& planner);

  /// The cached entry for `stmt`, or nullptr. Read-only; thread-safe
  /// against concurrent Lookups.
  const Entry* Lookup(const SelectStmt& stmt) const {
    auto it = entries_.find(&stmt);
    return it == entries_.end() ? nullptr : it->second.get();
  }

  /// Visits every cached entry. Serial sections only (the callback
  /// typically advances incremental state).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) {
    for (auto& [stmt, entry] : entries_) fn(*entry);
  }

  void Clear() { entries_.clear(); }

  uint64_t stamp() const { return stamp_; }
  void set_stamp(uint64_t stamp) { stamp_ = stamp; }

 private:
  std::unordered_map<const SelectStmt*, std::unique_ptr<Entry>> entries_;
  uint64_t stamp_ = 0;
};

}  // namespace datalawyer

#endif  // DATALAWYER_CORE_PLAN_CACHE_H_
