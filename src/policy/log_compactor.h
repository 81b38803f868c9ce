#ifndef DATALAWYER_POLICY_LOG_COMPACTOR_H_
#define DATALAWYER_POLICY_LOG_COMPACTOR_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "log/usage_log.h"
#include "policy/witness.h"
#include "storage/catalog_view.h"

namespace datalawyer {

struct ScanStats;  // exec/plan_executor.h

/// Per-query timings and volumes of the three compaction phases (§5.2:
/// "marking: the log compaction queries are executed ... delete: the
/// unmarked tuples are deleted ... insert: the remaining tuples in the
/// increment are appended").
struct CompactionStats {
  double mark_ms = 0;
  double delete_ms = 0;
  double insert_ms = 0;
  size_t rows_deleted = 0;           ///< removed from the persisted log
  size_t rows_inserted = 0;          ///< increment rows appended
  size_t rows_dropped_from_delta = 0;  ///< increment rows never persisted
  size_t index_probes = 0;  ///< witness-query equality probes against indexes
  size_t index_hits = 0;    ///< witness-query scans answered by an index
};

/// Executes the folded witness bodies of every policy over
/// log ∪ increment, retains exactly the union of the witnesses, and flushes
/// the surviving increment rows (Algorithm 2 applied at the end of each
/// successful query, §4.4 step 3-4).
///
/// Witness rows are mapped back to physical tuples through the executor's
/// lineage capture: the contributing tuples of a witness query's output are
/// precisely the log tuples the witness touches — a sound (occasionally
/// conservative) realization of the paper's mark phase.
class LogCompactor {
 public:
  /// `log` must outlive the compactor.
  explicit LogCompactor(UsageLog* log) : log_(log) {}

  /// `witnesses` are the folded witness bodies of all active policies (see
  /// FoldWitnesses); `base` is the database(-plus-constants) catalog; `now`
  /// the current clock. Relations no body marks and no fallback keeps are
  /// wiped.
  Result<CompactionStats> CompactAndFlush(const WitnessBodies& witnesses,
                                          const CatalogView* base,
                                          int64_t now);

  /// Mark phase only: runs each body's plan once and computes, per log
  /// relation, the ids to retain; a body whose plan failed to warm returns
  /// that error. Exposed for tests. `keep_all` receives the relations under
  /// full fallback; `scans` (optional) accumulates the bodies' access-path
  /// counters.
  Result<std::map<std::string, std::set<int64_t>>> Mark(
      const WitnessBodies& witnesses, const CatalogView* base, int64_t now,
      std::set<std::string>* keep_all, ScanStats* scans = nullptr);

 private:
  UsageLog* log_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_POLICY_LOG_COMPACTOR_H_
