#ifndef DATALAWYER_LOG_USAGE_LOG_H_
#define DATALAWYER_LOG_USAGE_LOG_H_

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "log/log_generator.h"
#include "storage/catalog_view.h"
#include "storage/table.h"

namespace datalawyer {

/// The usage log L = (R1, ..., Rm) of §3.2 plus the Eq.(1) staging
/// semantics: per query, increments f_i(q, D) are generated lazily into
/// in-memory delta tables; policies evaluate over main ∪ delta; on success
/// the deltas are flushed into the main tables (Lt = L't), on violation they
/// are discarded (Lt = Lt-1).
class UsageLog {
 public:
  UsageLog() = default;
  UsageLog(const UsageLog&) = delete;
  UsageLog& operator=(const UsageLog&) = delete;

  /// A log with the paper's three standard relations registered
  /// (Users, Schema, Provenance).
  static std::unique_ptr<UsageLog> WithStandardGenerators();

  Status RegisterGenerator(std::unique_ptr<LogGenerator> generator);

  /// Registered relation names in generation (cost-rank) order — the fixed
  /// order interleaved evaluation adds logs in (§4.2.1). Calibration
  /// overrides (SetCostRank) take precedence over the generators' built-in
  /// ranks.
  std::vector<std::string> RelationNamesInOrder() const;

  /// Overrides a relation's generation-order rank (lower = generated
  /// earlier) — set by offline calibration.
  void SetCostRank(const std::string& name, double rank);

  bool IsLogRelation(const std::string& name) const;
  const LogGenerator* generator(const std::string& name) const;

  /// Runs the generator for `name` (once per query) and stages {ts} × S_i.
  /// Returns the number of rows staged (0 if already generated).
  Result<size_t> EnsureGenerated(const std::string& name, int64_t ts,
                                 const GenerationInput& input);
  bool IsGenerated(const std::string& name) const;

  /// Marks a relation as never persisted: its increments are still staged
  /// for the current query's policy checks but dropped at commit. The
  /// time-independent optimization flags relations this way when every
  /// policy using them is time-independent (§5.3).
  void SetPersisted(const std::string& name, bool persisted);
  bool IsPersisted(const std::string& name) const;

  /// On: builds equality hash indexes on every column of every log
  /// relation's main table and keeps them maintained: appends
  /// (CommitStaged, the compactor's insert phase) add the new positions;
  /// deletions (compaction) drop the removed positions and renumber the
  /// survivors in place (see Table). Policy evaluation probes these
  /// through ConcatRelation for conjunctive equality predicates
  /// (`uid = $user`, `ts = $now` — the access pattern of nearly every paper
  /// policy). Deltas are never indexed: they hold one query's increment and
  /// are scanned. Off: drops them and turns maintenance off.
  void SetIndexes(bool on);
  bool indexes_enabled() const { return indexes_enabled_; }

  /// On: builds an ordered (sorted-run) index on the timestamp column
  /// ("ts") of every log relation's main table and keeps it maintained
  /// under the same discipline as the hash indexes: appends extend the
  /// unsorted tail (merged into the sorted run past a threshold), deletions
  /// drop and renumber entries in place. Policy evaluation answers
  /// sliding-window range predicates (`p.ts > $now - 30`, BETWEEN) through
  /// these via ConcatRelation::RangeLookup. Off: drops them.
  void SetOrderedIndexes(bool on);
  bool ordered_indexes_enabled() const { return ordered_indexes_enabled_; }

  /// On: keeps exact per-column statistics (row count, NDV, NULL count,
  /// min/max) on every log relation's main table, folded in on append and
  /// subtracted on compaction deletes. The planner's cost model reads these
  /// through RelationData::Stats().
  void SetStats(bool on);
  bool stats_enabled() const { return stats_enabled_; }

  /// Direct table access for the log compactor (mark/delete/insert phases).
  Table* main_table(const std::string& name);
  Table* delta_table(const std::string& name);
  const Table* main_table(const std::string& name) const;
  const Table* delta_table(const std::string& name) const;

  /// Appends surviving staged rows of persisted relations to the mains and
  /// resets per-query state. Returns total rows flushed.
  size_t CommitStaged();

  /// Drops all staged rows and resets per-query state (policy violation).
  void DiscardStaged();

  /// Per-query catalog: `base` (the database) extended with every log
  /// relation as main ∪ delta, plus Clock = {(now)}. The returned object
  /// owns the per-query relations and must outlive their use.
  struct PolicyCatalog {
    std::unique_ptr<OverlayCatalog> catalog;
    std::vector<std::unique_ptr<RelationData>> owned;
    const CatalogView* view() const { return catalog.get(); }
  };
  PolicyCatalog MakeCatalog(const CatalogView* base, int64_t now) const;

  /// Persists the committed log (main tables) as `log_<name>.dltab` files
  /// under `dir` — the paper's "flush log to disk", made restartable.
  Status SaveTo(const std::string& dir) const;

  /// Restores previously saved log relations into the (empty) main tables.
  /// Relations without a snapshot file are left empty.
  Status LoadFrom(const std::string& dir);

  /// Name of the synthesized clock relation ("clock").
  static const std::string& ClockRelationName();

 private:
  struct LogRelation {
    std::unique_ptr<LogGenerator> generator;
    std::unique_ptr<Table> main;
    std::unique_ptr<Table> delta;
    bool generated = false;
    bool persisted = true;
    /// Calibrated rank; NaN = use the generator's cost_rank().
    double rank_override = std::numeric_limits<double>::quiet_NaN();
  };

  LogRelation* Find(const std::string& name);
  const LogRelation* Find(const std::string& name) const;

  std::map<std::string, LogRelation> relations_;
  bool indexes_enabled_ = false;
  bool ordered_indexes_enabled_ = false;
  bool stats_enabled_ = false;
};

}  // namespace datalawyer

#endif  // DATALAWYER_LOG_USAGE_LOG_H_
