#ifndef DATALAWYER_POLICY_INCREMENTAL_H_
#define DATALAWYER_POLICY_INCREMENTAL_H_

#include <array>
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
/// removable per-group aggregate accumulators (GroupState).
///
/// One const nested-loop join walk (Walk) serves every read of the join.
/// It visits the relations in FROM order and takes, per level, main rows
/// below or from the fold watermark, all main rows, the staged delta, main
/// then delta, or nothing; each caller maps the walk's end (done, stopped
/// by its sink, work cap, expression error) to its own policy:
///
///  * the fold (Advance) joins the committed growth by the delta-join
///    decomposition and turns each new tuple into a contribution; a cap or
///    an error poisons;
///  * the overlay (Evaluate) joins the staged increment the same way with
///    main = old and delta = new, accumulating its tuples into per-eval
///    GroupStates merged with the maintained ones; a cap declines, an error
///    poisons. The levels before a delta level walk all of main, so the
///    overlay costs O(window) per query for P5/P6-shaped policies, not
///    O(delta);
///  * the §4.4 increment check (IncrementMayJoin) joins the staged deltas
///    of the generated relations alone; a cap or an error answers "may
///    join".
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
/// Evaluate and IncrementMayJoin are const and safe from the
/// policy-evaluation fan-out, whose only write is the relaxed poisoned
/// flag.
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

  /// A WHERE conjunct filed under the deepest fold level it references. It
  /// applies at that level when every level it reads is bound. Window
  /// conjuncts also read the clock, which a fold leaves unbound: there they
  /// become [enter, expire) intervals instead.
  struct LevelConjunct {
    ExprProgram program;
    uint64_t reads = 0;  ///< bit j: fold level j; kClockBit: the clock
  };
  /// Level masks hold one bit per fold level and one for the clock, so
  /// Build admits at most kMaxLevels relations.
  static constexpr size_t kMaxLevels = 63;
  static constexpr uint64_t kClockBit = uint64_t(1) << kMaxLevels;

  /// Window-derived range bound for the scan at one join level: at clock
  /// `now` the window conjunct compares the column against base + now, so
  /// an ordered index can serve the qualifying slice. Expire-type bounds
  /// (kGt/kGe/kEq lower bounds) are usable during folds too — a row outside
  /// them can never satisfy the window at the current or any later clock.
  struct WindowBound {
    size_t col = 0;
    int64_t base = 0;  ///< clock-side value at clock = 0 (slope 1)
    CompareOp op = CompareOp::kGt;
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

  /// Per-group accumulators: the maintained state's, or one query's
  /// overlay, which Evaluate merges with them.
  struct GroupState {
    int64_t active = 0;  ///< applied tuples; a maintained group erased at 0
    std::vector<AggState> aggs;
  };
  using Groups = std::unordered_map<Row, GroupState, RowHash>;

  /// One joined tuple that passed every non-window conjunct.
  struct Contribution {
    int64_t enter_at = 0;
    int64_t expire_at = 0;
    Row key;                  ///< group-by column values
    std::vector<Value> args;  ///< evaluated aggregate arguments
    std::vector<int64_t> sources;  ///< main row id per fold level
  };

  /// What one level of a join walk reads.
  enum class LevelRead {
    kFolded,         ///< main rows below the fold watermark
    kUnfolded,       ///< main rows from the fold watermark on
    kMain,           ///< every main row
    kDelta,          ///< the staged delta
    kMainThenDelta,  ///< every main row, then the staged delta
    kSkip,           ///< nothing: the level stays unbound
  };

  /// One join walk: per fold level what it reads, and what stays unbound.
  struct WalkSpec {
    std::array<LevelRead, kMaxLevels> reads{};
    /// Bit j: reads[j] is kSkip. kClockBit: a fold, which skips window
    /// conjuncts and probes in fold mode.
    uint64_t unbound = 0;
    int64_t now = 0;
    size_t cap = 0;  ///< WalkRow::steps that end the walk (kCap)
  };

  /// The running tuple of a walk: flat slots, and the position each bound
  /// level took in the table it read (a fold reads main tables only, so
  /// its sink maps them to the contribution's source row ids).
  struct WalkRow {
    Row slots;
    std::array<size_t, kMaxLevels> positions{};
    size_t steps = 0;  ///< rows visited, across the walks that share it
  };

  enum class WalkEnd { kDone, kStopped, kCap, kError };

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

  /// A walk whose clock slots hold `now` and whose steps start at 0.
  WalkRow StartWalk(int64_t now) const;

  /// Binds row `i` of `table` at `level` into `w`; *pass tells whether the
  /// level's applicable conjuncts hold. False on an expression error.
  bool BindRow(const WalkSpec& spec, size_t level, const Table* table,
               size_t i, WalkRow* w, bool* pass) const;

  /// Walks the join from fold level `level` on, handing every tuple that
  /// passes the applicable conjuncts to `sink(const WalkRow&)`, which
  /// returns false to stop the walk (kStopped). kCap once w->steps
  /// exceeds spec.cap; kError on a conjunct error.
  template <typename Sink>
  WalkEnd Walk(const WalkSpec& spec, size_t level, WalkRow* w,
               Sink& sink) const;

  /// Folds the committed growth of every relation's main table via the
  /// delta-join decomposition. Returns false (caller poisons) on an
  /// expression error, a non-integer window timestamp, or the work cap.
  bool FoldGrowth(int64_t now);
  bool EmitContribution(const WalkRow& w, int64_t now);

  /// The group key and aggregate arguments of a joined tuple. False on an
  /// expression error or a non-integer SUM argument (the executor mixes
  /// int and double sums; only the pure-integer case is mirrored).
  bool TupleGroup(const Row& slots, Row* key, std::vector<Value>* args) const;

  /// Tries to answer the scan of rels_[level].main through a hash or
  /// ordered-index probe; true with the (ascending) candidate positions
  /// when an index answered, false to mean "walk the table". Fold mode
  /// restricts window bounds to expire-type ones (enter-type bounds would
  /// drop rows that belong in pending_).
  bool ProbePositions(size_t level, bool fold_mode, int64_t now,
                      const Row& slots, std::vector<size_t>* out) const;

  /// Applies an active contribution and keeps it for its expiry, or only
  /// its sources when it never expires.
  void Activate(Contribution c);
  /// Adds one tuple's arguments to group `g`; false on a value the
  /// accumulators cannot mirror (non-finite MIN/MAX, structural tie).
  bool ApplyTuple(const std::vector<Value>& args, GroupState* g) const;
  void UnapplyContribution(const Contribution& c);
  void ActivatePending(int64_t now);
  void ExpireActive(int64_t now);

  /// Finish-equivalent value of aggregate `i` over the union of two
  /// accumulators (either may be null). False on a MIN/MAX structural tie.
  bool MergedAggValue(size_t i, const AggState* s, const AggState* o,
                      Value* out) const;

  /// Evaluates HAVING over one merged group (maintained `s`, overlay `o`);
  /// sets *violated. The synthetic empty global group is the call with
  /// both null.
  bool CheckGroup(const Row& key, const GroupState* s, const GroupState* o,
                  bool* violated) const;

  const BoundQuery* bq_ = nullptr;
  std::string message_;
  bool exists_only_ = false;   ///< no HAVING: verdict = any surviving tuple
  bool constant_false_ = false;  ///< a literal conjunct is not TRUE
  size_t total_slots_ = 0;

  std::vector<RelationState> rels_;
  std::vector<size_t> clock_slots_;
  std::vector<const Expr*> constant_conjuncts_;
  /// WHERE conjuncts by deepest referenced fold level.
  std::vector<std::vector<LevelConjunct>> conjuncts_;
  /// Index-probe candidates by fold level (see EqProbe / WindowBound).
  std::vector<std::vector<EqProbe>> eq_probes_;
  std::vector<std::vector<WindowBound>> window_bounds_;
  std::vector<WindowConjunct> windows_;
  std::vector<size_t> group_slots_;
  std::vector<AggSpec> aggs_;
  ExprProgram having_;  ///< grouped program; empty when exists_only_

  // --- Maintained state (serial sections only) ---
  Groups groups_;
  std::multimap<int64_t, Contribution> pending_;  ///< keyed by enter_at
  std::multimap<int64_t, Contribution> active_;   ///< keyed by expire_at
  /// Per fold level: source row ids of applied never-expiring
  /// contributions, which are not kept in active_.
  std::vector<std::unordered_set<int64_t>> permanent_sources_;
  int64_t total_active_ = 0;

  bool ready_ = false;       ///< Advance completed for current_now_
  bool built_ = false;       ///< state reflects the folded rows
  bool ever_built_ = false;  ///< a later full fold counts as a rebuild
  int64_t current_now_ = 0;
  uint64_t advance_count_ = 0;
  uint64_t cooldown_until_ = 0;  ///< advance_count_ gate for rebuilds
  uint64_t last_invalid_at_ = 0;
  int backoff_ = 0;

  mutable std::atomic<bool> poisoned_{false};
};

}  // namespace datalawyer

#endif  // DATALAWYER_POLICY_INCREMENTAL_H_
