#ifndef DATALAWYER_PLAN_PHYSICAL_H_
#define DATALAWYER_PLAN_PHYSICAL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bound_query.h"
#include "analysis/expr_program.h"
#include "common/result.h"
#include "common/value.h"
#include "sql/ast.h"
#include "storage/catalog_view.h"

namespace datalawyer {

struct PhysicalPlan;

/// A `column = constant` equality the scan may answer through a hash index.
/// The optimizer records every candidate; the interpreter probes each at
/// run time (index availability is a run-time property of the resolved
/// relation) and narrows the scan with the most selective answer. All scan
/// filters are still re-applied per emitted row, so probing only changes
/// the access path, never the result.
struct PhysicalProbe {
  size_t col = 0;  ///< column within the scanned relation
  Value value;     ///< constant to probe with (owned; folded at plan time)
  const Expr* conjunct = nullptr;  ///< originating conjunct (for explain)
};

/// A `column OP bound` range conjunct (OP in {<, <=, >, >=}, normalized so
/// the column sits on the left) the scan may answer through an ordered
/// index. The bound is either a plan-time constant or an expression over
/// relations already placed to the scan's left, evaluated per execution
/// against the accumulated intermediate — usable only when every left row
/// agrees on one bound value (the single-row clock relation of the
/// sliding-window policies always does). The originating conjunct is still
/// re-applied per emitted row, so probing only narrows the access path.
struct PhysicalRangeProbe {
  size_t col = 0;  ///< column within the scanned relation
  CompareOp op = CompareOp::kLt;  ///< <, <=, >, >= with the column on the left
  bool has_const = false;
  Value value;  ///< plan-time constant bound when has_const
  /// Bound expression over already-placed relations when !has_const, and
  /// its program over the accumulated left side's rows.
  const Expr* bound_expr = nullptr;
  ExprProgram bound_program;
  const Expr* conjunct = nullptr;  ///< originating conjunct (for explain)
};

/// Access path the cost model picked for a scan. kUnknown (costing off or
/// no statistics) keeps the adaptive behavior: probe every candidate at
/// run time and let the smallest hit set win.
enum class AccessPath {
  kUnknown,
  kSeqScan,
  kHashProbe,
  kRangeScan,
};

/// Scan of one FROM item: IndexProbe when a candidate's index answers at
/// run time, SeqScan otherwise. Base relations are *re-resolved by table
/// name* on every execution — a cached plan outlives the per-query overlay
/// catalogs (log ∪ increment) it runs against, so the bound
/// BoundRelation::relation pointer must never be dereferenced here.
struct PhysicalScan {
  size_t rel_idx = 0;  ///< FROM index in the member's BoundQuery
  std::vector<const Expr*> filters;  ///< pushed-down conjuncts, WHERE order
  /// `filters` compiled to read the scanned relation's own row (its window
  /// of the flat slots; every other slot reads NULL), so a scan tests a
  /// stored row before building the full-width row.
  std::vector<ExprProgram> filter_programs;
  std::vector<PhysicalProbe> probes;
  std::vector<PhysicalRangeProbe> range_probes;
  /// Cost-model decision; kUnknown = decide adaptively at run time.
  AccessPath chosen_path = AccessPath::kUnknown;
  /// Estimated output cardinality after pushed filters; < 0 when the plan
  /// was built without trustworthy statistics (EXPLAIN omits it then).
  double est_rows = -1;
  /// Present for subquery FROM items: the subquery's own physical plan.
  std::unique_ptr<PhysicalPlan> subplan;
};

/// The access path one execution of a scan takes, as ResolveAccessPath
/// decided it against the live relation.
struct ResolvedAccess {
  /// kSeqScan, kHashProbe or kRangeScan; never kUnknown.
  AccessPath path = AccessPath::kSeqScan;
  /// Row positions to visit (ascending) when an index answered.
  std::vector<size_t> positions;
  /// The conjuncts that produced `positions`, in conjunct order: the probed
  /// equality, or every range conjunct that set or tightened a bound of
  /// the merged interval.
  std::vector<const Expr*> conjuncts;
  size_t hash_probes = 0;   ///< hash-index probes issued
  size_t range_probes = 0;  ///< ordered-index range probes issued
};

/// Resolves a non-constant range bound for one execution; false means the
/// probe cannot narrow this time.
using RangeBoundFn = std::function<bool(const PhysicalRangeProbe&, Value*)>;

/// The one access-path decision for a scan of `data`, shared by the
/// executor and EXPLAIN so the two cannot disagree. Honours the cost
/// model's chosen_path while its index answers (a kRangeScan whose ordered
/// index is gone falls back to the hash probes); under kUnknown every
/// candidate is probed and the smallest hit set wins (a hash probe wins a
/// tie). The range probes on one column merge into one interval: per side
/// the tighter bound wins, an equal bound makes the side exclusive if any
/// of its conjuncts is, a bound that fails to compare drops out (the
/// conjunct is re-applied anyway), and a NULL bound alone is exact (`col
/// OP NULL` never holds). Non-constant bounds come from `resolve_bound`.
ResolvedAccess ResolveAccessPath(const PhysicalScan& ps,
                                 const RelationData& data,
                                 const RangeBoundFn& resolve_bound);

/// " [index probe (c = 1)]", " [range scan (c > 1) AND (c < 9)]" or
/// " [full scan]": the access token EXPLAIN and EXPLAIN ANALYZE print.
std::string AccessToken(const ResolvedAccess& access);

enum class JoinAlgo {
  kHashJoin,    ///< build on the incoming relation, probe with the left side
  kNestedLoop,  ///< cross product with residual filters
};

/// One step of the left-deep join fold: joins the accumulated left side
/// with the member's scans[i + 1].
struct PhysicalJoin {
  JoinAlgo algo = JoinAlgo::kNestedLoop;
  /// The incoming scan's side of each kHashJoin key (for estimates), plus
  /// the originating conjuncts for rendering.
  std::vector<const Expr*> right_keys;
  std::vector<const Expr*> equi_conjuncts;
  std::vector<const Expr*> residual;
  /// Programs of the keys, parallel lists (left over the accumulated
  /// side's full-width rows, right over the incoming scan's), and of the
  /// residuals (the incoming relation's slots read from the right row, the
  /// rest from the left row, so a rejected pair is never combined).
  std::vector<ExprProgram> left_key_programs;
  std::vector<ExprProgram> right_key_programs;
  std::vector<ExprProgram> residual_programs;
  /// Estimated output cardinality; < 0 when built without statistics.
  double est_rows = -1;
};

/// How EXPLAIN and EXPLAIN ANALYZE name a FROM item: "t (N rows) as b"
/// ("? rows" without `data`), or "subquery b as b".
std::string SourceLabel(const BoundRelation& rel, const RelationData* data);

/// "hash join <source> on <keys>" or "nested loop join <source>": the join
/// label EXPLAIN and EXPLAIN ANALYZE print.
std::string JoinLabel(const PhysicalJoin& pj, const std::string& source);

/// One UNION member: the join pipeline plus the tail stages its BoundQuery
/// prescribes (DISTINCT ON → aggregate → project → DISTINCT).
struct PhysicalMember {
  const BoundQuery* bq = nullptr;

  /// Constant folding proved a WHERE conjunct false: the join phase yields
  /// no rows (the tail still runs — a global aggregate over empty input
  /// forms one group).
  bool provably_empty = false;
  /// Constant conjuncts kept for run-time evaluation (evaluated once per
  /// execution against an all-NULL row, exactly like the pre-plan
  /// executor), in WHERE order.
  std::vector<const Expr*> runtime_constants;

  /// Scans in execution order; empty for a FROM-less member. scans[0] is
  /// the base of the fold, joins[i] consumes scans[i + 1].
  std::vector<PhysicalScan> scans;
  std::vector<PhysicalJoin> joins;  ///< size scans.size() - 1 (or 0)

  /// scan_order[j] = FROM index executed j-th. When this is not the
  /// identity (the optimizer reordered joins), the interpreter tracks
  /// per-row scan-emission positions and re-sorts the joined rows into the
  /// order the FROM-order fold would have produced, keeping results
  /// byte-identical to the unoptimized path.
  std::vector<size_t> scan_order;
  bool restore_input_order = false;

  /// Per-row programs of the tail stages: DISTINCT ON keys, GROUP BY keys,
  /// aggregate arguments (BoundQuery::aggregates order; empty for COUNT(*)),
  /// HAVING (empty when absent) and output columns (empty for a `*`
  /// expansion). HAVING and a grouped query's outputs read the group's
  /// finished aggregates.
  std::vector<ExprProgram> distinct_on_programs;
  std::vector<ExprProgram> group_by_programs;
  std::vector<ExprProgram> aggregate_arg_programs;
  ExprProgram having_program;
  std::vector<ExprProgram> output_programs;
};

/// An executable physical plan for one (possibly UNION-chained) bound
/// SELECT. References the BoundQuery chain and its AST; both must outlive
/// the plan. ORDER BY / LIMIT come from bound->stmt.
struct PhysicalPlan {
  const BoundQuery* bound = nullptr;
  std::vector<PhysicalMember> members;
};

/// Renders the plan in the executor's explain vocabulary (scan / hash join /
/// nested loop join / aggregate / distinct / project / sort / limit lines).
/// Base relations are resolved by name through `catalog` for live row
/// counts and index-probe decisions; pass the catalog the plan will run
/// against. Unresolvable relations render with "?" row counts and no probe.
std::string RenderPhysicalPlan(const PhysicalPlan& plan,
                               const CatalogView* catalog);

}  // namespace datalawyer

#endif  // DATALAWYER_PLAN_PHYSICAL_H_
