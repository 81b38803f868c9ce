#ifndef DATALAWYER_POLICY_WITNESS_H_
#define DATALAWYER_POLICY_WITNESS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "log/usage_log.h"
#include "sql/ast.h"

namespace datalawyer {

struct PhysicalPlan;  // plan/physical.h

/// Absolute-witness queries for one log relation on behalf of one policy
/// (§4.1.2). The compactor retains the union of the tuples these queries
/// touch; `full_fallback` keeps the whole relation (always sound — "setting
/// Rw = Ri always gives us a correct witness").
struct RelationWitness {
  bool full_fallback = false;
  /// One query per occurrence of the relation in the policy (self-joins
  /// yield several; Example 4.4). Results are unioned.
  std::vector<std::unique_ptr<SelectStmt>> queries;
};

/// Witnesses for every log relation a policy references.
struct WitnessSet {
  std::map<std::string, RelationWitness> per_relation;

  /// Merges `other` into this set (union of queries, OR of fallbacks).
  void MergeFrom(WitnessSet other);
};

/// One query the mark phase runs once, on behalf of every witness folded
/// into it: the compactor retains each of `relations`' tuples in its
/// lineage.
struct WitnessBody {
  std::unique_ptr<SelectStmt> query;
  std::vector<std::string> relations;  ///< harvested log relations, sorted
  /// The query's cached physical plan, owned by the caller's plan cache and
  /// set when it warms; nullptr binds and plans the query on every run.
  const PhysicalPlan* plan = nullptr;
};

/// The mark work of a prepared policy set, folded once (FoldWitnesses).
struct WitnessBodies {
  std::vector<WitnessBody> bodies;
  /// Relations under full fallback: retained whole, never queried.
  std::set<std::string> keep_all;
};

/// Folds the witness sets of every active policy into bodies:
///
///  * relations in `skip_retention` are dropped (wiped, never queried);
///    relations any set keeps whole go to keep_all and are never queried;
///  * full-query witnesses (`SELECT DISTINCT a.*`, no DISTINCT ON) with
///    identical FROM and WHERE become one body marking the union of their
///    relations, within a policy and across policies. This is exact:
///    DISTINCT unions the lineage of duplicate rows, so the body's lineage
///    is every tuple of every satisfying join row, whichever alias is
///    projected;
///  * DISTINCT ON witnesses keep one body per distinct query text, since
///    the row they keep depends on the projection.
WitnessBodies FoldWitnesses(const std::vector<const WitnessSet*>& sets,
                            const std::set<std::string>& skip_retention = {});

/// Adds the synthetic one-row relation `dl_now(ts)` = {(now)} that witness
/// queries reference to `catalog`, which owns it.
void AddNowRelation(UsageLog::PolicyCatalog* catalog, int64_t now);

/// One usage-log row a rejecting policy matched — the counterexample shown
/// when explaining a rejection. Row ids are normalized to the relation's
/// own id space: increment rows report their staged id with
/// `from_increment` set, so a witness stays meaningful after the staged
/// increment is discarded.
struct CapturedWitness {
  std::string relation;
  int64_t row_id = 0;
  bool from_increment = false;
  int64_t ts = -1;  ///< the row's log timestamp; -1 if no ts column
  std::vector<std::string> values;  ///< rendered column values
};

struct WitnessCaptureResult {
  std::vector<CapturedWitness> rows;  ///< sorted by (relation, id-space, id)
  uint64_t truncated = 0;  ///< violating rows beyond the capture limit
};

/// Re-evaluates a rejecting policy statement over `catalog` with lineage
/// capture and returns the usage-log rows that contributed to its non-empty
/// answer — the tuples "on the strength of which" the query was rejected.
/// Must run before the staged increment is discarded (the reject path calls
/// it ahead of DiscardStaged). Deterministic: rows are deduplicated and
/// sorted, so the planned and naive (`naive` = optimizer off) evaluations
/// return byte-identical captures.
Result<WitnessCaptureResult> CaptureViolationWitnesses(
    const SelectStmt& stmt, const CatalogView* catalog, const UsageLog& log,
    size_t limit, bool naive, bool enable_stats_costing);

/// Synthesizes absolute-witness queries per Lemmas 4.1–4.3:
///
///  * the witness for log relation occurrence `a` selects `a.*` over `a`,
///    its ts-equi-join neighborhood N(a), and the database relations, with
///    the policy's predicates restricted to that FROM set;
///  * Boolean aggregate-free policies tighten `SELECT DISTINCT` to
///    `SELECT DISTINCT ON (a.X)` where X are a's join attributes (clock
///    comparison expressions count as joins);
///  * clock predicates are normalized to `c.ts op expr` form, `c.ts > expr`
///    dropped, `c.ts < expr` rewritten to `dl_now.ts + 1 < expr`,
///    `=` split into `<= AND >=`; a `!=` on the clock (or any clock use we
///    cannot normalize) falls back to the full relation;
///  * policies with HAVING are treated as full queries: GROUP BY/HAVING are
///    dropped and the plain `SELECT DISTINCT a.*` witness (Eq. 2) is used;
///  * FROM subqueries are handled separately and unioned (Algorithm 2).
///
/// The generated queries reference the synthetic one-row relation
/// `dl_now(ts)` holding the current clock value; the compactor provides it.
class WitnessBuilder {
 public:
  explicit WitnessBuilder(const UsageLog* log) : log_(log) {}

  Result<WitnessSet> Build(const SelectStmt& policy_stmt) const;

  /// Name of the synthetic current-time relation ("dl_now").
  static const std::string& NowRelationName();

 private:
  Result<WitnessSet> BuildForMember(const SelectStmt& member) const;

  const UsageLog* log_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_POLICY_WITNESS_H_
