#ifndef DATALAWYER_POLICY_WITNESS_H_
#define DATALAWYER_POLICY_WITNESS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/query_result.h"
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

/// One query the compactor runs once over each log row when the row
/// arrives, on behalf of every witness folded into it (§4.1.2). A witness
/// keeps the log tuples of each satisfying join row for as long as every
/// clock conjunct `dl_now.ts + 1 < rhs` (or `<=`) holds. Every log alias of
/// a witness is ts-joined to the marked one and the clock ticks strictly,
/// so a join row's log tuples all arrive with one increment; every clock
/// conjunct bounds the clock from above, so a join row that stops
/// satisfying a witness never satisfies it again. Whether a join row keeps
/// its tuples is therefore a tick fixed when they arrive: its bound.
struct WitnessBody {
  /// The witnesses' shared FROM and WHERE without the dl_now conjuncts,
  /// selecting every bound's right-hand side and then the DISTINCT ON key,
  /// without DISTINCT: one output row, with its lineage, per join row.
  std::unique_ptr<SelectStmt> query;
  /// One clock conjunct: `query`'s output column holding its right-hand
  /// side, and whether it is `<=` (inclusive) rather than `<`.
  struct Bound {
    size_t column = 0;
    bool inclusive = false;
  };
  /// One folded witness: a join row keeps its tuples of `relations` until
  /// the first of `bounds` passes, or for good when there is none.
  struct Member {
    std::vector<std::string> relations;  ///< harvested log relations, sorted
    std::vector<Bound> bounds;
  };
  std::vector<Member> members;
  /// DISTINCT ON witnesses: the trailing output columns holding the key
  /// (one member); one join row per key keeps its tuples. 0 otherwise.
  size_t key_columns = 0;
  /// The query's cached physical plan, owned by the caller's plan cache
  /// and set when it warms, or the error warming it produced.
  Result<const PhysicalPlan*> plan =
      Status::Internal("witness body was never planned");
};

/// The compaction work of a prepared policy set, folded once
/// (FoldWitnesses).
struct WitnessBodies {
  std::vector<WitnessBody> bodies;
  /// Relations under full fallback: retained whole, never queried.
  std::set<std::string> keep_all;
};

/// Folds the witness sets of every active policy into bodies:
///
///  * relations in `skip_retention` are dropped (wiped, never queried);
///    relations any set keeps whole go to keep_all and are never queried;
///  * full-query witnesses (`SELECT DISTINCT a.*`, no DISTINCT ON) whose
///    FROM and clock-free WHERE are identical become one body, within a
///    policy and across policies; witnesses that differ only in their
///    clock bounds become members of it. This is exact: DISTINCT unions
///    the lineage of duplicate rows, so a witness's lineage is every tuple
///    of every satisfying join row, whichever alias is projected, and the
///    body's output carries each member's bounds for each join row;
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

/// The usage-log rows in the lineage of a rejecting policy's answer
/// (`result`, evaluated over `catalog` with lineage capture) — the tuples
/// "on the strength of which" the query was rejected. Must run before the
/// staged increment is discarded (the reject path calls it ahead of
/// DiscardStaged). Deterministic: rows are deduplicated and sorted, so any
/// two evaluations of one statement (planned, cached or optimizer-off)
/// return byte-identical captures.
WitnessCaptureResult CaptureViolationWitnesses(const QueryResult& result,
                                               const CatalogView* catalog,
                                               const UsageLog& log,
                                               size_t limit);

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
///  * FROM subqueries are handled separately and unioned (Algorithm 2);
///  * every neighbour's ts is equated with a's within the witness: the
///    policy implies it, and compaction runs a witness over one increment
///    at a time. An equality that ran through the clock or a subquery,
///    which the witness drops, is stated directly.
///
/// The generated queries reference the synthetic one-row relation
/// `dl_now(ts)` holding the current clock value; preemptive compaction's
/// partials provide it, and FoldWitnesses turns its conjuncts into bounds.
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
