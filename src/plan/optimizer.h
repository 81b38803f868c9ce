#ifndef DATALAWYER_PLAN_OPTIMIZER_H_
#define DATALAWYER_PLAN_OPTIMIZER_H_

#include "analysis/bound_query.h"
#include "common/result.h"
#include "plan/logical.h"
#include "plan/physical.h"

namespace datalawyer {

struct PlannerOptions {
  /// Master switch for the cost-improving rules: constant folding, join
  /// reordering, computed-constant index probes, and range-probe
  /// extraction. Predicate pushdown, equality-conjunct extraction into
  /// join keys, and literal index probes are structural — they always run
  /// and reproduce the original executor's behavior exactly, so `false` is
  /// the baseline ("naive") plan.
  bool enable_optimizer = true;

  /// Statistics-driven cost-based planning: join order and scan cardinality
  /// are estimated from TableStats (selectivities, NDVs, ranges) and each
  /// scan's access path (seq vs. hash probe vs. range scan) is chosen by
  /// estimated cost instead of adaptively at run time. Off: join order
  /// falls back to the heuristic smallest-NumRows greedy and access paths
  /// stay adaptive — plans remain correct, only the choices change.
  /// Requires enable_optimizer.
  bool enable_stats_costing = true;
};

/// The rule-based planner: bound AST → logical plan → rules → physical
/// plan. Stateless apart from its options; const and safe to share across
/// threads.
///
/// Rules, in order:
///  1. constant folding — WHERE conjuncts over no relation are evaluated at
///     plan time; TRUE disappears, FALSE/NULL proves the join phase empty,
///     an evaluation error defers the conjunct to run time (so `1/0 = 1`
///     still fails exactly as it used to);
///  2. join reordering — greedy smallest-relation-first over the equi-join
///     connectivity of src/analysis/join_graph, ties broken by FROM
///     position (so equal-sized relations keep their written order); the
///     interpreter restores FROM-order row order afterwards, keeping
///     results byte-identical;
///  3. predicate pushdown — single-relation conjuncts move onto their scan;
///  4. equality-conjunct extraction — conjuncts equating a placed-side
///     expression with an incoming-side expression become hash-join keys,
///     the rest residual filters;
///  5. index-probe selection — `col = constant` scan filters become probe
///     candidates (literals always; folded constant expressions under the
///     optimizer), decided against RelationData::IndexLookup at run time;
///  6. range-probe selection (under the optimizer) — `col OP constant`
///     scan filters and join-residual conjuncts bounding a column by an
///     expression over already-placed relations become range-probe
///     candidates served by ordered indexes (RelationData::RangeLookup);
///  7. cost-based access path and join order (under enable_stats_costing)
///     — per-scan cardinalities estimated from TableStats pick between
///     seq scan, hash probe, and range scan, and drive the greedy join
///     order in place of raw row counts.
class Planner {
 public:
  explicit Planner(PlannerOptions options = {});

  /// Full pipeline for a bound (possibly UNION-chained) SELECT. The
  /// returned plan references `bound` and its AST; both must outlive it.
  /// Emits a "planning" trace span (category "plan").
  Result<PhysicalPlan> Plan(const BoundQuery& bound) const;

  /// Builds and optimizes the logical plan without physicalizing it
  /// (inspection / debugging).
  Result<LogicalPlan> PlanLogical(const BoundQuery& bound) const;

  const PlannerOptions& options() const { return options_; }

 private:
  Status OptimizeMember(LogicalMember* member) const;
  Result<PhysicalMember> Physicalize(const LogicalMember& member) const;

  PlannerOptions options_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_PLAN_OPTIMIZER_H_
