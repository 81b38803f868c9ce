#ifndef DATALAWYER_EXEC_PLAN_EXECUTOR_H_
#define DATALAWYER_EXEC_PLAN_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/bound_query.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/task_scheduler.h"
#include "exec/query_result.h"
#include "plan/physical.h"
#include "storage/catalog_view.h"

namespace datalawyer {

/// Operator classes the adaptive sizer distinguishes. Per-row cost differs
/// by an order of magnitude between, say, a full scan's copy-out and a
/// nested loop's full right-side sweep, so one suggested size per class is
/// the coarsest split that still converges on sensible morsels.
enum class MorselClass {
  kScan = 0,
  kJoinBuild,
  kJoinProbe,
  kNestedLoop,
  kProject,
  kAggregate,
};
constexpr int kNumMorselClasses = 6;
const char* MorselClassName(MorselClass cls);

/// Feedback loop turning observed per-morsel wall times into per-class
/// suggested morsel sizes (rows) targeting ~kTargetUsPerMorsel of work per
/// morsel — big enough to amortize dispatch, small enough to steal.
///
/// Two halves with distinct thread disciplines:
///  * Record() — called by executors after each morselized operator, from
///    any thread (policy statements evaluate concurrently); accumulates
///    into per-class relaxed-atomic pending slots.
///  * Roll() — called at the serial head between queries (no query in
///    flight); folds the pending slots into an EWMA of µs/row and publishes
///    clamped suggestions. Because suggestions change *only* here, every
///    read within one query sees the same value, so a query's morsel
///    boundaries are stable — and morsel boundaries only affect task
///    granularity, never results (fragments merge in morsel order), which
///    is the determinism argument the differential tests pin.
class MorselFeedback {
 public:
  static constexpr double kTargetUsPerMorsel = 500.0;
  static constexpr size_t kMinSize = 256;
  static constexpr size_t kMaxSize = 65536;
  static constexpr double kAlpha = 0.3;  ///< EWMA weight of the newest obs

  /// Charges `total_us` of observed morsel wall time covering `rows` input
  /// rows to `cls`. Thread-safe, lock-free.
  void Record(MorselClass cls, double total_us, uint64_t rows);

  /// Folds pending observations into the EWMA and republishes suggestions.
  /// Serial-head only (concurrent with nothing).
  void Roll();

  /// Current suggested rows-per-morsel for `cls`; 0 until the class has
  /// been observed at least once. One relaxed load.
  size_t SuggestedSize(MorselClass cls) const;

  /// One line per observed class: EWMA µs/row and the suggested size.
  /// Serial-head only (reads the EWMA the same way Roll() writes it).
  std::string Summary() const;

 private:
  struct alignas(64) Pending {
    std::atomic<uint64_t> ns{0};  ///< wall time, nanoseconds
    std::atomic<uint64_t> rows{0};
  };
  Pending pending_[kNumMorselClasses];
  double ewma_us_per_row_[kNumMorselClasses] = {};  ///< serial-head only
  std::atomic<size_t> suggested_[kNumMorselClasses] = {};
};

/// Log2-bucketed distribution of one operator's per-morsel wall times
/// (same bucket layout as Histogram, shared via LogBucketFor /
/// LogBucketPercentile). Single-threaded: filled by DriveMorsels after the
/// fan-out joins, read when rendering EXPLAIN ANALYZE.
struct MorselTiming {
  uint64_t count = 0;
  double min_us = 0;
  double max_us = 0;
  uint64_t buckets[Histogram::kNumBuckets] = {};

  void Observe(double us);
  double Percentile(double q) const;
};

/// One operator's morsel accounting, filled by PlanExecutor::DriveMorsels
/// and rendered by EXPLAIN ANALYZE. A wall time below cpu_us means the
/// morsels overlapped; the ratio is the operator's effective parallelism.
struct MorselRun {
  size_t morsels = 0;  ///< morsels whose fragments were kept; 0 = serial
  /// Of those, the ones the ParallelFor caller ran itself, and the µs from
  /// dispatch to the first helper-run morsel (the latest over the
  /// operator's dispatches; < 0 when the caller ran them all).
  size_t caller_morsels = 0;
  double helper_start_us = -1;
  double cpu_us = 0;  ///< summed per-morsel wall time
  /// Per-morsel wall-time distribution (min/p50/p95/max); count == 0 when
  /// the operator ran serially. A hash join folds build and probe morsels
  /// into the one distribution its profile row shows.
  MorselTiming timing;
};

/// Execution knobs.
struct ExecOptions {
  /// Track, for every output row, the set of contributing base-table tuples
  /// (the paper's lineage provenance). Scans and joins carry one row index
  /// per FROM item; lineage sets are built only where rows merge or leave a
  /// UNION member. The provenance generator runs the user query once, with
  /// this on.
  bool capture_lineage = false;

  /// Apply the planner's cost-improving rules (constant folding, join
  /// reordering, computed-constant index probes). Results are identical
  /// either way.
  bool enable_optimizer = true;

  /// Statistics-driven cost-based planning (see PlannerOptions). Only
  /// affects which plan the facade Executor builds; results are identical.
  bool enable_stats_costing = true;

  /// Work-stealing scheduler for morsel-driven intra-plan parallelism;
  /// nullptr (or a zero-thread scheduler) keeps every operator serial. The
  /// scheduler is shared with the policy fan-out and must outlive the
  /// executor. Results are byte-identical to serial execution: fragments
  /// are merged in deterministic morsel order, and any merge that cannot be
  /// proven exact (float partial sums) redoes the operator serially.
  TaskScheduler* scheduler = nullptr;

  /// Rows per morsel. A fragment shorter than two morsels is not worth a
  /// dispatch and runs serially.
  size_t morsel_size = 1024;

  /// Adaptive morsel sizing: when non-null, observed per-morsel times feed
  /// this accumulator and its per-class suggestions (published between
  /// queries by Roll()) override morsel_size. nullptr keeps the fixed size.
  /// Must outlive the executor.
  MorselFeedback* morsel_feedback = nullptr;
};

/// Access-path counters of one Run/Execute call (aggregated per query into
/// ExecutionStats.index_probes / index_hits).
struct ScanStats {
  size_t index_probes = 0;  ///< equality conjuncts probed against an index
  size_t index_hits = 0;    ///< scans answered by an index instead of a walk
  size_t range_probes = 0;  ///< range conjuncts probed against an ordered index
  size_t range_hits = 0;    ///< scans answered by an ordered-index range probe
  size_t morsels = 0;       ///< morsels dispatched by parallel operators
};

/// Runtime counters for one physical operator, collected in execution order
/// when profiling is enabled (EXPLAIN ANALYZE). Labels reuse the
/// RenderPhysicalPlan vocabulary so the analyzed plan reads like the static
/// one. `depth` > 0 marks operators inside a subquery FROM item; their wall
/// time is also included in the enclosing scan's, so end-to-end totals
/// compare against the sum of depth-0 operators only.
struct OperatorProfile {
  std::string label;
  int depth = 0;
  uint64_t rows_in = 0;   ///< rows consumed (both sides for a join)
  uint64_t rows_out = 0;  ///< rows emitted after the operator's filters
  double wall_us = 0;
  size_t peak_hash_entries = 0;  ///< join build / group / dedup table size
  size_t index_probes = 0;       ///< index probes issued by this scan
  size_t index_hits = 0;         ///< 1 when an index answered this scan
  /// Planner's cardinality estimate for this operator (EXPLAIN ANALYZE
  /// renders "est N" next to the actual rows); < 0 when the plan carried
  /// no estimate.
  double est_rows = -1;
  /// How the operator's morsels ran (none: it ran serially), and its
  /// hash-build partitions (parallel hash join only).
  MorselRun morsel_run;
  size_t partitions = 0;
  /// Under lineage capture (< 0 otherwise): the source-tuple width the
  /// operator carries, and where lineage sets are built (project,
  /// aggregate, distinct) the entries in the sets it outputs.
  int64_t lineage_width = -1;
  int64_t lineage_entries = -1;
};

/// Renders profiled operators one per line, annotated with their counters,
/// followed by a summary line comparing the depth-0 operator sum against
/// `total_us` (the wall time of the enclosing Run, measured by the caller).
std::string RenderOperatorProfile(const std::vector<OperatorProfile>& ops,
                                  double total_us);

/// Interprets physical plans (materialized, operator-at-a-time).
///
/// Base relations are re-resolved *by table name* through `catalog` on
/// every Run: a plan cached at policy-registration time outlives the
/// per-query overlay catalogs (log ∪ increment) it executes against, so
/// the stale BoundRelation::relation pointers inside its BoundQuery are
/// never dereferenced. Relation names are stable across queries; arity is
/// re-checked per run.
class PlanExecutor {
 public:
  /// `catalog` must outlive the executor.
  explicit PlanExecutor(const CatalogView* catalog, ExecOptions options = {})
      : catalog_(catalog), options_(options) {}

  /// Executes a physical plan (including its UNION chain). The plan's
  /// BoundQuery chain and AST must be alive.
  Result<QueryResult> Run(const PhysicalPlan& plan);

  /// Access-path counters accumulated across this executor's Run calls.
  const ScanStats& scan_stats() const { return scan_stats_; }

  /// Turns on per-operator profiling for subsequent Run calls. Off by
  /// default; when off the only cost on the execution path is one branch
  /// per operator.
  void EnableProfiling() { profiling_ = true; }
  bool profiling() const { return profiling_; }

  /// Operators recorded (in execution order) by profiled Run calls.
  const std::vector<OperatorProfile>& profile() const { return profile_; }

 private:
  /// Where one scanned FROM item's emission indices lead under lineage
  /// capture: `positions` maps each to the row's position in the base
  /// relation (read as a RowIdAt row id only when a lineage set is built),
  /// or in a subquery's answer, whose per-row lineage is kept.
  struct SourceMap {
    uint32_t rel = 0;                     ///< index into base_relations_
    const RelationData* data = nullptr;   ///< nullptr for a subquery
    std::vector<uint32_t> positions;      ///< by emission index
    std::vector<LineageSet> sub_lineage;  ///< subquery answer's lineage
  };

  /// Joined-but-not-yet-projected rows, laid out by the binder's slots.
  /// Under lineage capture or order restore each row also has a source
  /// tuple in `sources`: its emission index in each FROM item scanned so
  /// far (scan order), `maps.size()` per row, row after row.
  struct Intermediate {
    std::vector<Row> rows;
    std::vector<uint32_t> sources;
    std::vector<SourceMap> maps;  ///< one per tuple slot; empty untracked
  };

  Result<QueryResult> RunMember(const PhysicalMember& pm);
  Result<Intermediate> BuildJoin(const PhysicalMember& pm);
  /// `left` is the accumulated left-side intermediate when this scan feeds
  /// a join (nullptr for scans[0]); left-bound range probes evaluate their
  /// bound expression against it.
  Result<Intermediate> ScanRelation(const PhysicalMember& pm,
                                    const PhysicalScan& ps,
                                    const Intermediate* left);
  Result<Intermediate> JoinStep(const PhysicalMember& pm,
                                const PhysicalJoin& pj, Intermediate left,
                                size_t rel_idx, Intermediate right);
  /// Sorts `joined` into the row order the FROM-order fold would have
  /// produced (lexicographic in per-relation scan positions, FROM order).
  void RestoreInputOrder(const PhysicalMember& pm, Intermediate* joined);
  Result<QueryResult> ProjectUngrouped(const PhysicalMember& pm,
                                       Intermediate input);
  Result<QueryResult> ProjectGrouped(const PhysicalMember& pm,
                                     Intermediate input);
  Status ApplyDistinct(QueryResult* result);
  Status ApplyOrderAndLimit(const BoundQuery& bq, QueryResult* result);

  /// Index into base_relations_ for `name`, interning it if new.
  uint32_t InternRelation(const std::string& name);

  /// The one place serial and morsel execution part ways. Splits [0, n)
  /// into morsels of the adaptive suggestion for `cls` when a feedback
  /// accumulator is attached and has one, of morsel_size otherwise. With
  /// no scheduler workers, or at most one morsel, it calls span(0, n, out)
  /// inline. Otherwise the scheduler runs span(lo, hi, &frag) per morsel,
  /// each into a fragment local to its thread that moves into the
  /// morsel's slot once done (growing neighbouring slots in place from
  /// several threads would bounce shared cache lines on every row). The
  /// first failing morsel's status is returned (== the serial first
  /// error: earlier morsels are clean and spans stop at their first bad
  /// row); otherwise the fragments go to merge(out, std::move(frag)) in
  /// morsel order. A merge that returns false (it cannot prove itself
  /// exact) discards `out`, and the span reruns inline over all n rows.
  /// Adds the dispatched morsels to scan_stats_; when profiling or feeding
  /// adaptive feedback it times each morsel into run->cpu_us, the feedback
  /// accumulator and (profiling) run->timing. run->morsels counts the
  /// morsels whose fragments were kept, run->caller_morsels those of them
  /// the calling thread ran.
  template <typename Frag, typename Span, typename Merge>
  Status DriveMorsels(size_t n, MorselClass cls, Frag* out, const Span& span,
                      const Merge& merge, MorselRun* run);
  /// Moves a morsel fragment's rows and source tuples onto the end of
  /// `dst` (fragments concatenate in morsel order, which is what keeps
  /// parallel output byte-identical to serial). Always exact: returns true.
  static bool AppendFragment(Intermediate* dst, Intermediate&& src);
  /// Appends the lineage entries of `in`'s row `row` to *out (unsorted).
  /// With `last` (one index per tuple slot), a slot whose index equals
  /// last's is skipped, and last takes the row's indices.
  static void AppendTupleLineage(const Intermediate& in, size_t row,
                                 uint32_t* last, LineageSet* out);
  /// Sets a profiled operator's lineage share when lineage is captured:
  /// the source-tuple `width` (< 0: it carries none), and the entries in
  /// `built` when given.
  void RecordLineage(OperatorProfile* op, int64_t width,
                     const std::vector<LineageSet>* built = nullptr) const;

  /// Steady-clock microseconds for operator timing; only called when
  /// profiling is on.
  static double ProfNowUs();
  /// Appends a profile record (profiling must be on), with the morsel
  /// fields of `run` when given.
  OperatorProfile& RecordOp(std::string label, double start_us,
                            uint64_t rows_in, uint64_t rows_out,
                            const MorselRun* run = nullptr);

  const CatalogView* catalog_;
  ExecOptions options_;
  std::vector<std::string> base_relations_;
  ScanStats scan_stats_;
  bool profiling_ = false;
  int profile_depth_ = 0;  ///< subquery nesting of the op being recorded
  std::vector<OperatorProfile> profile_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_EXEC_PLAN_EXECUTOR_H_
