#ifndef DATALAWYER_POLICY_LOG_COMPACTOR_H_
#define DATALAWYER_POLICY_LOG_COMPACTOR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/query_result.h"
#include "log/usage_log.h"
#include "policy/witness.h"
#include "storage/catalog_view.h"

namespace datalawyer {

/// Per-query timings and volumes of the three compaction phases (§5.2:
/// "marking: the log compaction queries are executed ... delete: the
/// unmarked tuples are deleted ... insert: the remaining tuples in the
/// increment are appended"). Marking here is stamping the new rows and
/// finding the expired ones.
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

/// Retains the union of the active policies' absolute witnesses (§4.1.2)
/// and flushes the surviving increment rows (Algorithm 2 at the end of each
/// successful query, §4.4 step 3-4), without running a witness over the
/// whole log.
///
/// A witness's answer for a log row is fixed when the row arrives, except
/// for its clock bound (see WitnessBody). So each compaction runs every
/// body once, over only the rows no compaction has stamped yet: the
/// increment, plus the rows a compaction period > 1 committed unpruned.
/// Each row is stamped with the latest bound of any join row whose lineage
/// uses it; a row no join row keeps is dropped (increment) or deleted
/// (committed). Rows whose stamp has passed (`now + 1 >= bound`) are then
/// found through a per-relation expiry order and deleted.
///
/// A DISTINCT ON body keeps one claim per key: the join row with the latest
/// bound. A claim it replaces is withdrawn from the rows that held it.
///
/// A body that joins a database table sees the table as it was when the
/// row was stamped: narrowed once to the rows the body's own conditions on
/// it admit, so stamping an increment does not rescan it. The stamps and
/// the narrowed tables hold until Reset(), which new witness bodies need,
/// and a write to a table they join: the next compaction then stamps the
/// whole log.
class LogCompactor {
 public:
  /// `log` must outlive the compactor.
  explicit LogCompactor(UsageLog* log) : log_(log) {}

  /// `witnesses` are the folded witness bodies of all active policies (see
  /// FoldWitnesses), the same ones on every call until Reset(); `base` is
  /// the database(-plus-constants) catalog; `now` the current clock.
  /// Relations no body marks and no fallback keeps are wiped. A body whose
  /// plan failed to warm returns that error before anything changes.
  Result<CompactionStats> CompactAndFlush(const WitnessBodies& witnesses,
                                          const CatalogView* base,
                                          int64_t now);

  /// Forgets every stamp, claim and narrowed table.
  void Reset();

 private:
  /// Bounds: a join row keeps its tuples while now + 1 < bound.
  static constexpr int64_t kNoClaim = std::numeric_limits<int64_t>::min();
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

  /// What keeps one row: the latest bound of the full-query witnesses that
  /// use it, and the bound of every DISTINCT ON claim it holds.
  struct Stamp {
    int64_t fixed = kNoClaim;
    std::vector<int64_t> held;
    int64_t bound() const;
  };
  struct RelationStamps {
    int64_t stamped_below = 0;  ///< main-table row ids below are stamped
    std::unordered_map<int64_t, Stamp> rows;       ///< by main-table id
    std::set<std::pair<int64_t, int64_t>> expiry;  ///< (bound, row id)
    /// This compaction's stamps of unstamped rows, by catalog row id.
    std::unordered_map<int64_t, Stamp> fresh;
    /// This compaction's appended increment rows: catalog id -> main id.
    std::unordered_map<int64_t, int64_t> moved;
  };
  /// One DISTINCT ON key's kept join row: its bound and its log tuples.
  struct Claim {
    int64_t bound = 0;
    std::vector<std::pair<RelationStamps*, int64_t>> rows;
  };
  /// One DISTINCT ON body's claims, and their expiry order.
  struct Claims {
    std::map<Row, Claim> by_key;
    std::set<std::pair<int64_t, const Row*>> expiry;
  };

  /// The database tables one body reads, each narrowed to the rows the
  /// body's conditions on it alone admit; built by Narrow.
  struct Narrowed {
    bool built = false;
    std::vector<std::pair<std::string, std::unique_ptr<RelationData>>> tables;
  };

  /// Narrows each database table `body` reads once, with conditions on it
  /// alone, over `base`.
  Status Narrow(const WitnessBody& body, const CatalogView* base,
                Narrowed* out) const;
  /// Stamps the unstamped rows in `result`, the output of `body`'s query;
  /// records the claims it makes in `made`.
  void StampRows(const WitnessBody& body, const QueryResult& result,
                 const std::set<std::string>& keep_all, int64_t now,
                 Claims* claims, std::vector<Claim*>* made);
  /// The bound `dl_now.ts + 1 < rhs` (`<=` when `inclusive`) sets. A NULL
  /// never compares true; a value that is not an integer (the clock is)
  /// keeps its tuples for good, which is always sound.
  static int64_t ToBound(const Value& rhs, bool inclusive);
  /// Takes `claim`'s bound off the rows that hold it.
  static void Withdraw(const Claim& claim);

  UsageLog* log_;
  std::map<std::string, RelationStamps> relations_;
  std::vector<Claims> claims_;  ///< per body; empty for full-query bodies
  std::vector<Narrowed> narrowed_;  ///< per body
};

}  // namespace datalawyer

#endif  // DATALAWYER_POLICY_LOG_COMPACTOR_H_
