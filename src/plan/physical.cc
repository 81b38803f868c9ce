#include "plan/physical.h"

#include <algorithm>
#include <cmath>

#include "analysis/eval.h"
#include "common/strings.h"
#include "plan/logical.h"

namespace datalawyer {

namespace {

/// Resolves a range probe's bound at render time: constants fold; bound
/// expressions evaluate when every referenced relation resolves through
/// the live catalog with exactly one row (the clock) — the same condition
/// under which the interpreter can use the probe.
bool ResolveRenderBound(const Expr& e, const BoundQuery& bq,
                        const CatalogView* catalog, Value* out) {
  uint64_t mask = RelationMask(e, bq);
  Row row(bq.total_slots, Value::Null());
  for (size_t i = 0; i < bq.relations.size(); ++i) {
    if ((mask & (uint64_t(1) << i)) == 0) continue;
    const BoundRelation& rel = bq.relations[i];
    const RelationData* data =
        rel.table_name.empty() || catalog == nullptr
            ? nullptr
            : catalog->Find(rel.table_name);
    if (data == nullptr || data->NumRows() != 1) return false;
    const Row& src = data->RowAt(0);
    size_t offset = bq.slot_offsets[i];
    size_t width = rel.schema.NumColumns();
    for (size_t c = 0; c < width && c < src.size(); ++c) {
      row[offset + c] = src[c];
    }
  }
  EvalContext ctx{&bq, &row, nullptr};
  Result<Value> v = Eval(e, ctx);
  if (!v.ok()) return false;
  *out = std::move(v).value();
  return true;
}

/// One side of a column's merged range interval.
struct IntervalEnd {
  bool set = false;
  bool inclusive = true;
  Value bound;
  std::vector<size_t> shapers;  ///< range-probe indexes that shaped it
};

/// Folds range probe `p`'s bound into `end` when it is tighter (`tighter`
/// is kGt for a lower end, kLt for an upper one). An equal bound only
/// makes the end exclusive; a bound that fails to compare drops out.
void Tighten(IntervalEnd* end, Value bound, bool inclusive, CompareOp tighter,
             size_t p) {
  if (end->set) {
    Result<Value> t = Value::Compare(bound, tighter, end->bound);
    if (!t.ok() || t->is_null()) return;
    if (!t->AsBool()) {
      Result<Value> eq = Value::Compare(bound, CompareOp::kEq, end->bound);
      if (eq.ok() && !eq->is_null() && eq->AsBool() && !inclusive &&
          end->inclusive) {
        end->inclusive = false;
        end->shapers.push_back(p);
      }
      return;
    }
  }
  *end = IntervalEnd{true, inclusive, std::move(bound), {p}};
}

std::string FormatEstRows(double est) {
  return " est_rows=" + std::to_string((long long)std::llround(est));
}

void RenderMember(const PhysicalMember& pm, const CatalogView* catalog,
                  std::string* out) {
  const BoundQuery& bq = *pm.bq;

  for (size_t j = 0; j < pm.scans.size(); ++j) {
    const PhysicalScan& ps = pm.scans[j];
    const BoundRelation& rel = bq.relations[ps.rel_idx];

    const RelationData* data =
        rel.table_name.empty() || catalog == nullptr
            ? nullptr
            : catalog->Find(rel.table_name);
    ResolvedAccess access;
    if (data != nullptr) {
      access = ResolveAccessPath(
          ps, *data, [&](const PhysicalRangeProbe& probe, Value* bound) {
            return ResolveRenderBound(*probe.bound_expr, bq, catalog, bound);
          });
    }

    std::string source;
    if (rel.table_name.empty()) {
      source = "subquery " + rel.binding_name;
    } else if (data != nullptr) {
      source = rel.table_name + " (" + std::to_string(data->NumRows()) +
               " rows)";
    } else {
      source = rel.table_name + " (? rows)";
    }

    std::vector<std::string> pushdown;
    for (const Expr* p : ps.filters) pushdown.push_back(p->ToString());

    if (j == 0) {
      *out += "  scan " + source + " as " + rel.binding_name;
      *out += AccessToken(access);
    } else {
      const PhysicalJoin& pj = pm.joins[j - 1];
      if (pj.algo == JoinAlgo::kHashJoin) {
        std::vector<std::string> keys;
        for (const Expr* e : pj.equi_conjuncts) keys.push_back(e->ToString());
        *out += "  hash join " + source + " as " + rel.binding_name + " on " +
                Join(keys, " AND ");
      } else {
        *out += "  nested loop join " + source + " as " + rel.binding_name;
      }
      if (access.path != AccessPath::kSeqScan) *out += AccessToken(access);
      if (!pj.residual.empty()) {
        std::vector<std::string> residual;
        for (const Expr* e : pj.residual) residual.push_back(e->ToString());
        *out += " residual: " + Join(residual, " AND ");
      }
    }
    if (!pushdown.empty()) *out += " pushdown: " + Join(pushdown, " AND ");
    if (j == 0 && ps.est_rows >= 0) {
      *out += FormatEstRows(ps.est_rows);
    } else if (j > 0 && pm.joins[j - 1].est_rows >= 0) {
      *out += FormatEstRows(pm.joins[j - 1].est_rows);
    }
    *out += "\n";
  }
  if (pm.scans.empty()) *out += "  constant row\n";
  if (pm.provably_empty) *out += "  [provably empty]\n";

  if (!bq.stmt->distinct_on.empty()) {
    *out += "  distinct on (" + std::to_string(bq.stmt->distinct_on.size()) +
            " keys)\n";
  }
  if (bq.is_grouped) {
    *out += "  aggregate [" + std::to_string(bq.stmt->group_by.size()) +
            " group keys, " + std::to_string(bq.aggregates.size()) +
            " aggregates]";
    if (bq.stmt->having != nullptr) {
      *out += " having " + bq.stmt->having->ToString();
    }
    *out += "\n";
  }
  *out += "  project " + std::to_string(bq.output_columns.size()) +
          " columns";
  if (bq.stmt->distinct) *out += " distinct";
  *out += "\n";
}

}  // namespace

ResolvedAccess ResolveAccessPath(const PhysicalScan& ps,
                                 const RelationData& data,
                                 const RangeBoundFn& resolve_bound) {
  ResolvedAccess out;
  auto offer = [&](AccessPath path, std::vector<size_t>&& hits,
                   std::vector<const Expr*>&& conjuncts) {
    if (out.path != AccessPath::kSeqScan &&
        hits.size() >= out.positions.size()) {
      return;
    }
    out.path = path;
    out.positions = std::move(hits);
    out.conjuncts = std::move(conjuncts);
  };

  auto try_hash = [&]() {
    for (const PhysicalProbe& probe : ps.probes) {
      std::vector<size_t> hits;
      if (!data.IndexLookup(probe.col, probe.value, &hits)) continue;
      ++out.hash_probes;
      offer(AccessPath::kHashProbe, std::move(hits), {probe.conjunct});
    }
  };

  auto try_range = [&]() {
    const std::vector<PhysicalRangeProbe>& probes = ps.range_probes;
    for (size_t p = 0; p < probes.size(); ++p) {
      size_t col = probes[p].col;
      bool seen = false;
      for (size_t q = 0; q < p; ++q) seen = seen || probes[q].col == col;
      if (seen) continue;  // this column's interval is already probed

      IntervalEnd lo, hi;
      for (size_t q = p; q < probes.size(); ++q) {
        const PhysicalRangeProbe& probe = probes[q];
        if (probe.col != col) continue;
        Value bound = probe.value;
        if (!probe.has_const && !resolve_bound(probe, &bound)) continue;
        if (bound.is_null()) {
          lo = IntervalEnd{true, true, Value::Null(), {q}};
          hi = IntervalEnd{};
          break;
        }
        bool lower = probe.op == CompareOp::kGt || probe.op == CompareOp::kGe;
        bool inclusive =
            probe.op == CompareOp::kGe || probe.op == CompareOp::kLe;
        Tighten(lower ? &lo : &hi, std::move(bound), inclusive,
                lower ? CompareOp::kGt : CompareOp::kLt, q);
      }
      if (!lo.set && !hi.set) continue;

      std::vector<size_t> hits;
      if (!data.RangeLookup(col, lo.set ? &lo.bound : nullptr, lo.inclusive,
                            hi.set ? &hi.bound : nullptr, hi.inclusive,
                            &hits)) {
        continue;
      }
      ++out.range_probes;
      std::vector<size_t> shapers = lo.shapers;
      shapers.insert(shapers.end(), hi.shapers.begin(), hi.shapers.end());
      std::sort(shapers.begin(), shapers.end());
      std::vector<const Expr*> conjuncts;
      for (size_t q : shapers) conjuncts.push_back(probes[q].conjunct);
      offer(AccessPath::kRangeScan, std::move(hits), std::move(conjuncts));
    }
  };

  switch (ps.chosen_path) {
    case AccessPath::kSeqScan:
      break;
    case AccessPath::kHashProbe:
      try_hash();
      break;
    case AccessPath::kRangeScan:
      try_range();
      if (out.path == AccessPath::kSeqScan) try_hash();  // index gone: adapt
      break;
    case AccessPath::kUnknown:
      try_hash();
      try_range();
      break;
  }
  return out;
}

std::string AccessToken(const ResolvedAccess& access) {
  std::vector<std::string> conjuncts;
  for (const Expr* c : access.conjuncts) conjuncts.push_back(c->ToString());
  switch (access.path) {
    case AccessPath::kHashProbe:
      return " [index probe " + Join(conjuncts, " AND ") + "]";
    case AccessPath::kRangeScan:
      return " [range scan " + Join(conjuncts, " AND ") + "]";
    default:
      return " [full scan]";
  }
}

std::string RenderPhysicalPlan(const PhysicalPlan& plan,
                               const CatalogView* catalog) {
  std::string out;
  const BoundQuery* prev = nullptr;
  for (const PhysicalMember& pm : plan.members) {
    if (prev != nullptr) {
      out += prev->stmt->union_all ? "UNION ALL\n" : "UNION\n";
    }
    RenderMember(pm, catalog, &out);
    prev = pm.bq;
  }
  const SelectStmt* top = plan.bound->stmt;
  if (!top->order_by.empty()) {
    out += "  sort " + std::to_string(top->order_by.size()) + " keys\n";
  }
  if (top->limit.has_value()) {
    out += "  limit " + std::to_string(*top->limit) + "\n";
  }
  return out;
}

}  // namespace datalawyer
