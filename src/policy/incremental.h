#ifndef DATALAWYER_POLICY_INCREMENTAL_H_
#define DATALAWYER_POLICY_INCREMENTAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/bound_query.h"
#include "analysis/expr_program.h"
#include "common/value.h"
#include "common/value_hash.h"
#include "log/usage_log.h"
#include "sql/ast.h"
#include "storage/catalog_view.h"
#include "storage/table.h"

namespace datalawyer {

/// Incrementally maintained evaluation state for one cached policy plan.
///
/// A policy is a standing query over the usage log; re-running it from
/// scratch on every checked query costs O(log size). For a classifiable
/// statement shape (see Build) this class keeps the policy's *contributions*
/// — the joined tuples that pass every non-window conjunct, tagged with the
/// [enter, expire) clock interval their window conjuncts admit — folded into
/// removable per-group aggregate accumulators. Each query then costs
/// O(delta): fold the committed growth, expire/activate window edges, and
/// overlay the staged increment at evaluation time.
///
/// Each contribution remembers the main-table row id it took from every
/// relation. A compaction delete (Table::EraseIds) publishes the removed
/// row ids as a retraction delta, and Advance subtracts it: contributions
/// with a retracted source are dropped (unapplied when active). Row ids are
/// stable and a contribution is one joined tuple of source rows, so what is
/// left is exactly the fold of the surviving rows — compaction and the
/// maintained state compose instead of forcing a rebuild.
///
/// Correctness contract: Evaluate() either reproduces the full evaluation's
/// verdict and violation message byte-for-byte, or declines
/// (Verdict::supported == false) and the caller falls back to the full
/// path. Any shape or value the maintenance cannot mirror exactly —
/// non-integer timestamps, SUM over doubles, MIN/MAX ties between
/// structurally different values, expression errors — poisons the state
/// permanently (until the next plan-cache warm) instead of guessing.
///
/// Threading follows the repo's phasing discipline: Build and Advance run
/// only in serial sections (plan-cache warm, the head of ExecuteChecked);
/// Evaluate is const and safe from the policy-evaluation fan-out, whose
/// only write is the relaxed poisoned flag.
class IncrementalState {
 public:
  /// Classifies `stmt` (with its cache-entry binding `bq`) and returns
  /// maintenance state when the shape is incrementalizable, nullptr when it
  /// is full-only. Supported shape: a single SELECT whose select items are
  /// all literals (the verdict is result emptiness, the message the first
  /// literal), over log relations / the clock / static tables resolvable
  /// through `statics`, where every clock-referencing conjunct is a
  /// slope-one window bound (`col OP clock_expr`), GROUP BY is plain
  /// column references, and HAVING uses only grouped columns and
  /// COUNT/SUM/MIN/MAX aggregates (AVG is full-only).
  static std::unique_ptr<IncrementalState> Build(const SelectStmt& stmt,
                                                 const BoundQuery& bq,
                                                 const UsageLog& log,
                                                 const CatalogView* statics);

  /// Serial head: brings the state up to clock `now`. Subtracts each
  /// dependency's last retraction when that is exactly what changed it,
  /// folds committed main-table growth (the delta-join of new suffixes),
  /// activates pending window entries, and expires elapsed ones. Any other
  /// deletion (RemoveIds, Clear, a missed retraction), a retraction that
  /// hits a never-expiring contribution, or a clock that moved backwards
  /// rebuilds from scratch with an exponential-backoff cooldown. Increments
  /// *rebuilds per invalidation-triggered full rebuild.
  void Advance(int64_t now, size_t* rebuilds);

  struct Verdict {
    bool supported = false;  ///< false => caller runs the full evaluation
    bool violated = false;   ///< meaningful only when supported
  };

  /// Const fan-out read: the policy's verdict at `now` from maintained
  /// state plus the staged per-query increments (read directly from the
  /// delta tables, which are frozen during evaluation). Declines when the
  /// state is stale, poisoned, cooling down, or the overlay work would
  /// exceed its cap.
  Verdict Evaluate(int64_t now) const;

  /// True when Advance brought the state to `now` and it is not poisoned:
  /// Evaluate(now) answers unless its overlay exceeds the work cap.
  bool Ready(int64_t now) const {
    return ready_ && now == current_now_ && !poisoned();
  }

  /// §4.4 early-answer test, O(staged increment): can a tuple built only
  /// from the staged rows of the log relations in `generated` pass the
  /// policy's conjuncts? Joins those delta tables alone; static relations,
  /// log relations outside `generated`, and every conjunct referencing one
  /// are dropped, which only enlarges the join. False proves no such tuple
  /// exists. When every log alias's ts is joined and the clock strictly
  /// increases, a new tuple of the full join consists of staged rows only
  /// (committed rows carry older timestamps), so false means the increment
  /// adds nothing: the policy's answer over L ∪ Δ equals its answer over L,
  /// which Evaluate(now) computes. True on the work cap or an expression
  /// error (conservative).
  bool IncrementMayJoin(const std::set<std::string>& generated,
                        int64_t now) const;

  /// The (single, deduplicated) violation message — the first select item's
  /// literal rendered exactly as the full path renders it.
  const std::string& message() const { return message_; }

  bool poisoned() const {
    return poisoned_.load(std::memory_order_relaxed);
  }

 private:
  /// One FROM item in fold order (clock excluded).
  struct RelationState {
    std::string name;        ///< lowercased table name
    bool is_log = false;     ///< has a per-query delta table
    size_t slot_offset = 0;  ///< first flat slot of this relation's columns
    size_t arity = 0;
    const Table* main = nullptr;   ///< log main table or static table
    const Table* delta = nullptr;  ///< log delta table; null for statics
    /// Watermark: main rows with a smaller row id are folded into state.
    int64_t folded_below = 0;
    /// Position of the watermark in main (ids ascend with position);
    /// refreshed at the head of every Advance.
    size_t folded_rows = 0;
    uint64_t folded_epoch = 0;  ///< main mutation epoch at the last fold
  };

  /// One clock window bound: contribution active iff
  /// enter_at <= now < expire_at with
  ///   enter_at  = row[slot] - base + enter_adj   (when has_enter)
  ///   expire_at = row[slot] - base + expire_adj  (when has_expire).
  struct WindowConjunct {
    size_t slot = 0;   ///< non-clock column the bound constrains
    int64_t base = 0;  ///< clock-side affine intercept
    bool has_enter = false;
    int64_t enter_adj = 0;
    bool has_expire = false;
    int64_t expire_adj = 0;
  };

  /// Hash-probe candidate for the scan at one join level: the positions of
  /// rows with main[col] equal to the bound side's value can come from the
  /// relation's hash index (the incremental form of a hash join with a
  /// log-side delta). Like the executor's pushdown, a probe only narrows:
  /// the originating conjunct is still re-applied to every visited row.
  struct EqProbe {
    size_t col = 0;     ///< column within the relation
    ExprProgram other;  ///< side bound by outer levels / constants
  };

  /// A WHERE conjunct filed under the deepest fold level it references,
  /// with every level it references (IncrementMayJoin skips the conjunct
  /// when one of them is dropped).
  struct LevelConjunct {
    ExprProgram program;
    std::vector<size_t> levels;
  };

  enum class WindowOp { kGt, kGe, kLt, kLe, kEq };

  /// Window-derived range bound for the scan at one join level: at clock
  /// `now` the window conjunct compares the column against base + now, so
  /// an ordered index can serve the qualifying slice. Expire-type bounds
  /// (kGt/kGe/kEq lower bounds) are usable during folds too — a row outside
  /// them can never satisfy the window at the current or any later clock.
  struct WindowBound {
    size_t col = 0;
    int64_t base = 0;  ///< clock-side value at clock = 0 (slope 1)
    WindowOp op = WindowOp::kGt;
  };

  enum class AggKind { kCountStar, kCount, kSum, kMin, kMax };

  /// One aggregate call site, in BoundQuery::aggregates order.
  struct AggSpec {
    AggKind kind = AggKind::kCountStar;
    bool distinct = false;
    ExprProgram arg;  ///< empty for COUNT(*)
  };

  /// Removable accumulator for one aggregate site over one group. Mirrors
  /// AggregateAccumulator under deletions: plain counts and int sums
  /// subtract, DISTINCT keeps multiplicities, MIN/MAX keeps the multiset.
  struct AggState {
    int64_t count = 0;    ///< non-null adds (non-distinct count/sum)
    int64_t sum_int = 0;  ///< non-distinct int sum
    std::unordered_map<Value, int64_t, ValueHash> distinct;
    std::multiset<Value> ordered;  ///< min/max candidates
  };

  struct GroupState {
    int64_t active = 0;  ///< active contributions; group erased at 0
    std::vector<AggState> aggs;
  };

  /// One joined tuple that passed every non-window conjunct.
  struct Contribution {
    int64_t enter_at = 0;
    int64_t expire_at = 0;
    Row key;                  ///< group-by column values
    std::vector<Value> args;  ///< evaluated aggregate arguments
    std::vector<int64_t> sources;  ///< main row id per fold level
  };

  /// Per-eval additive accumulator for overlay (staged-increment) tuples.
  struct OverlayAgg {
    int64_t count = 0;
    int64_t sum_int = 0;
    std::unordered_map<Value, int64_t, ValueHash> distinct;
    bool has_min = false;
    Value min;
    bool has_max = false;
    Value max;
  };

  struct OverlayGroup {
    int64_t hits = 0;
    std::vector<OverlayAgg> aggs;
  };

  IncrementalState() = default;

  void Poison() const {
    poisoned_.store(true, std::memory_order_relaxed);
  }

  /// Resets every fold marker and container (dependency invalidation).
  void ClearState();

  /// Subtracts retraction deltas: `retracted[j]` lists the row ids (ascending)
  /// removed from rels_[j].main, or is null. Returns false when one feeds a
  /// never-expiring contribution, which is not kept and forces a rebuild.
  bool Retract(const std::vector<const std::vector<int64_t>*>& retracted);

  /// Folds the committed growth of every relation's main table via the
  /// delta-join decomposition. Returns false (caller poisons) on an
  /// expression error, a non-integer window timestamp, or the work cap.
  bool FoldGrowth(int64_t now);
  bool FoldTerm(size_t level, size_t term, int64_t now, Row* scratch);
  bool EmitContribution(const Row& scratch, int64_t now);

  /// Tries to answer the scan of rels_[level].main through a hash or
  /// ordered-index probe; true with the (ascending) candidate positions
  /// when an index answered, false to mean "walk the table". Fold mode
  /// restricts window bounds to expire-type ones (enter-type bounds would
  /// drop rows that belong in pending_).
  bool ProbePositions(size_t level, bool fold_mode, int64_t now, Row* scratch,
                      std::vector<size_t>* out) const;

  /// Applies an active contribution and keeps it for its expiry, or only
  /// its sources when it never expires.
  void Activate(Contribution c);
  void ApplyContribution(const Contribution& c);
  bool ApplyAgg(const AggSpec& spec, const Value& v, AggState* s);
  void UnapplyContribution(const Contribution& c);
  void ActivatePending(int64_t now);
  void ExpireActive(int64_t now);

  /// Overlay join over the staged deltas; accumulates into *groups (or
  /// just reports existence for exists-only policies). Returns false on
  /// cap/error (sets *supported_out accordingly via the caller).
  bool OverlayTerm(size_t level, size_t term, int64_t now, Row* scratch,
                   std::unordered_map<Row, OverlayGroup, RowHash>* groups,
                   bool* any_tuple, size_t* steps) const;
  /// IncrementMayJoin's join over the delta tables of the `live` levels.
  bool DeltaTerm(size_t level, const std::vector<bool>& live, Row* scratch,
                 size_t* steps) const;
  bool AccumulateOverlay(const Row& scratch,
                         std::unordered_map<Row, OverlayGroup, RowHash>* g,
                         bool* any_tuple) const;

  /// Finish-equivalent merged aggregate value (state + overlay halves,
  /// either may be null). Returns false on a MIN/MAX structural tie.
  bool MergedAggValue(size_t i, const AggState* s, const OverlayAgg* o,
                      Value* out) const;

  /// Evaluates HAVING over one merged group; appends to *violated. The
  /// synthetic empty global group is the call with null state and overlay.
  bool CheckGroup(const Row& key, const GroupState* s, const OverlayGroup* o,
                  bool* violated) const;

  const BoundQuery* bq_ = nullptr;
  std::string message_;
  bool exists_only_ = false;   ///< no HAVING: verdict = any surviving tuple
  bool constant_false_ = false;  ///< a literal conjunct is not TRUE
  size_t total_slots_ = 0;

  std::vector<RelationState> rels_;
  std::vector<size_t> clock_slots_;
  std::vector<const Expr*> constant_conjuncts_;
  /// Non-window conjuncts by deepest referenced fold level.
  std::vector<std::vector<ExprProgram>> level_conjuncts_;
  /// All conjuncts (windows included) by level, for overlay evaluation
  /// where the clock slots are prefilled with `now`.
  std::vector<std::vector<LevelConjunct>> overlay_conjuncts_;
  /// Index-probe candidates by fold level (see EqProbe / WindowBound).
  std::vector<std::vector<EqProbe>> eq_probes_;
  std::vector<std::vector<WindowBound>> window_bounds_;
  std::vector<WindowConjunct> windows_;
  std::vector<size_t> group_slots_;
  std::vector<AggSpec> aggs_;
  ExprProgram having_;  ///< grouped program; empty when exists_only_

  // --- Maintained state (serial sections only) ---
  std::unordered_map<Row, GroupState, RowHash> groups_;
  std::multimap<int64_t, Contribution> pending_;  ///< keyed by enter_at
  std::multimap<int64_t, Contribution> active_;   ///< keyed by expire_at
  /// Per fold level: source row ids of applied never-expiring
  /// contributions, which are not kept in active_.
  std::vector<std::unordered_set<int64_t>> permanent_sources_;
  int64_t total_active_ = 0;
  /// Source row id per fold level of the tuple FoldTerm is building.
  std::vector<int64_t> fold_sources_;

  bool ready_ = false;       ///< Advance completed for current_now_
  bool built_ = false;       ///< state reflects the folded rows
  bool ever_built_ = false;  ///< a later full fold counts as a rebuild
  int64_t current_now_ = 0;
  uint64_t advance_count_ = 0;
  uint64_t cooldown_until_ = 0;  ///< advance_count_ gate for rebuilds
  uint64_t last_invalid_at_ = 0;
  int backoff_ = 0;
  size_t fold_steps_ = 0;

  mutable std::atomic<bool> poisoned_{false};
};

}  // namespace datalawyer

#endif  // DATALAWYER_POLICY_INCREMENTAL_H_
