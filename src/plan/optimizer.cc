#include "plan/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "analysis/eval.h"
#include "analysis/join_graph.h"
#include "common/trace.h"
#include "plan/stats.h"

namespace datalawyer {

namespace {

/// If `conjunct` is `lhs = rhs` with one side over relations in `left_mask`
/// only and the other over `right_mask` only, returns the (left, right)
/// expression pair.
bool AsEquiJoin(const Expr& conjunct, const BoundQuery& bq, uint64_t left_mask,
                uint64_t right_mask, const Expr** left_side,
                const Expr** right_side) {
  if (conjunct.kind() != ExprKind::kBinary) return false;
  const auto& b = static_cast<const BinaryExpr&>(conjunct);
  if (b.op != "=") return false;
  uint64_t lm = RelationMask(*b.lhs, bq);
  uint64_t rm = RelationMask(*b.rhs, bq);
  if (lm != 0 && rm != 0 && (lm & ~left_mask) == 0 && (rm & ~right_mask) == 0) {
    *left_side = b.lhs.get();
    *right_side = b.rhs.get();
    return true;
  }
  if (lm != 0 && rm != 0 && (rm & ~left_mask) == 0 && (lm & ~right_mask) == 0) {
    *left_side = b.rhs.get();
    *right_side = b.lhs.get();
    return true;
  }
  return false;
}

/// Parses `op` into *out when an ordered index can serve it (<, <=, >, >=).
bool ParseRangeOp(const std::string& op, CompareOp* out) {
  return ParseCompareOp(op, out) && *out != CompareOp::kEq &&
         *out != CompareOp::kNe;
}

/// If `e` is a column reference into relation `rel_idx`, returns its column
/// index within that relation's schema; -1 otherwise.
int ScanColumnOf(const Expr& e, const BoundQuery& bq, size_t rel_idx) {
  if (e.kind() != ExprKind::kColumnRef) return -1;
  auto it = bq.column_slots.find(&e);
  if (it == bq.column_slots.end()) return -1;
  size_t offset = bq.slot_offsets[rel_idx];
  size_t width = bq.relations[rel_idx].schema.NumColumns();
  if (it->second < offset || it->second >= offset + width) return -1;
  return int(it->second - offset);
}

/// Plan-time constant bound of `e`: the literal value, or — under the
/// optimizer — the folded value of a relation-free, aggregate-free
/// expression. Returns false when the bound is not a plan-time constant.
bool FoldConstBound(const Expr& e, const BoundQuery& bq, bool enable_optimizer,
                    Value* out) {
  if (e.kind() == ExprKind::kLiteral) {
    *out = static_cast<const LiteralExpr&>(e).value;
    return true;
  }
  if (!enable_optimizer || RelationMask(e, bq) != 0 || ContainsAggregate(e)) {
    return false;
  }
  Row null_row(bq.total_slots, Value::Null());
  EvalContext ctx{&bq, &null_row, nullptr};
  Result<Value> v = Eval(e, ctx);
  if (!v.ok()) return false;
  *out = std::move(v).value();
  return true;
}

/// Plan-time evaluation of a bound expression whose every referenced
/// relation holds exactly one row (the clock, Constants): fills those
/// slots from the single rows and evaluates. Used only for cardinality
/// estimation — the run-time probe re-evaluates against the live rows.
bool EvalSingleRowBound(const Expr& e, const BoundQuery& bq, Value* out) {
  uint64_t mask = RelationMask(e, bq);
  if (mask == 0 || ContainsAggregate(e)) return false;
  Row row(bq.total_slots, Value::Null());
  for (size_t i = 0; i < bq.relations.size(); ++i) {
    if ((mask & (uint64_t(1) << i)) == 0) continue;
    const RelationData* rel = bq.relations[i].relation;
    if (rel == nullptr || rel->NumRows() != 1) return false;
    const Row& src = rel->RowAt(0);
    size_t offset = bq.slot_offsets[i];
    size_t width = bq.relations[i].schema.NumColumns();
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

/// Estimated selectivity of a single-relation conjunct against relation
/// `rel_idx`, from its TableStats when present and the System-R defaults
/// otherwise. Conservative: anything unrecognized estimates as a generic
/// range predicate.
double EstimateConjunctSelectivity(const Expr& conjunct, const BoundQuery& bq,
                                   size_t rel_idx, const TableStats* stats,
                                   bool enable_optimizer) {
  if (conjunct.kind() != ExprKind::kBinary) return kDefaultRangeSelectivity;
  const auto& b = static_cast<const BinaryExpr&>(conjunct);
  if (b.op == "!=" || b.op == "<>") return kDefaultNeqSelectivity;
  CompareOp range_op;
  bool is_range = ParseRangeOp(b.op, &range_op);
  if (b.op != "=" && !is_range) return kDefaultRangeSelectivity;
  for (int flip = 0; flip < 2; ++flip) {
    const Expr* col_side = flip == 0 ? b.lhs.get() : b.rhs.get();
    const Expr* val_side = flip == 0 ? b.rhs.get() : b.lhs.get();
    int col = ScanColumnOf(*col_side, bq, rel_idx);
    if (col < 0) continue;
    if (b.op == "=") return EstimateEqSelectivity(stats, size_t(col));
    CompareOp op = flip == 0 ? range_op : MirrorCompareOp(range_op);
    Value bound;
    bool have_bound = FoldConstBound(*val_side, bq, enable_optimizer, &bound) ||
                      EvalSingleRowBound(*val_side, bq, &bound);
    return EstimateRangeSelectivity(stats, size_t(col), op,
                                    have_bound ? &bound : nullptr);
  }
  return b.op == "=" ? kDefaultEqSelectivity : kDefaultRangeSelectivity;
}

/// Descends a member's tail chain to its Filter node.
LogicalFilter* FilterOf(LogicalNode* node) {
  while (node != nullptr) {
    switch (node->kind) {
      case LogicalKind::kFilter:
        return static_cast<LogicalFilter*>(node);
      case LogicalKind::kProject:
        node = static_cast<LogicalProject*>(node)->child.get();
        break;
      case LogicalKind::kAggregate:
        node = static_cast<LogicalAggregate*>(node)->child.get();
        break;
      case LogicalKind::kDistinct:
        node = static_cast<LogicalDistinct*>(node)->child.get();
        break;
      default:
        return nullptr;
    }
  }
  return nullptr;
}

/// Flattens a left-deep join tree into execution order: scans[j] is the
/// j-th relation scanned, joins[j - 1] the join consuming scans[j].
void CollectTree(LogicalNode* node, std::vector<LogicalScan*>* scans,
                 std::vector<LogicalJoin*>* joins) {
  if (node == nullptr) return;
  if (node->kind == LogicalKind::kScan) {
    scans->push_back(static_cast<LogicalScan*>(node));
    return;
  }
  auto* join = static_cast<LogicalJoin*>(node);
  CollectTree(join->left.get(), scans, joins);
  joins->push_back(join);
  scans->push_back(join->right.get());
}

/// Greedy join order: start with the smallest relation, then repeatedly
/// take the smallest relation equi-connected (per JoinGraph) to the placed
/// set, falling back to the smallest remaining one when nothing connects.
/// "Smallest" means raw NumRows under the heuristic planner; under
/// stats-based costing it is the estimated cardinality after the
/// relation's own pushable conjuncts (selectivities from TableStats).
/// Ties break toward the original FROM position, so equal-sized relations
/// (the common case for policy plans built over an empty log) keep their
/// written order.
std::vector<size_t> ChooseJoinOrder(const BoundQuery& bq,
                                    const std::vector<const Expr*>& conjuncts,
                                    const PlannerOptions& options) {
  size_t n = bq.relations.size();
  std::vector<double> est(n);
  for (size_t i = 0; i < n; ++i) {
    est[i] = bq.relations[i].relation != nullptr
                 ? double(bq.relations[i].relation->NumRows())
                 : std::numeric_limits<double>::infinity();
  }
  if (options.enable_stats_costing) {
    for (size_t i = 0; i < n; ++i) {
      const RelationData* rel = bq.relations[i].relation;
      if (rel == nullptr) continue;
      const TableStats* stats = rel->Stats();
      uint64_t rel_bit = uint64_t(1) << i;
      for (const Expr* c : conjuncts) {
        if (RelationMask(*c, bq) != rel_bit) continue;
        est[i] *= EstimateConjunctSelectivity(*c, bq, i, stats,
                                              options.enable_optimizer);
      }
    }
  }

  std::vector<std::vector<bool>> conn(n, std::vector<bool>(n, false));
  JoinGraph graph = JoinGraph::Build(*bq.stmt);
  for (const auto& cls : graph.Classes()) {
    std::vector<size_t> rels;
    for (const QualifiedColumn& col : cls) {
      int idx = bq.FindRelation(col.qualifier);
      if (idx >= 0) rels.push_back(size_t(idx));
    }
    for (size_t a : rels) {
      for (size_t b : rels) {
        if (a != b) conn[a][b] = true;
      }
    }
  }

  std::vector<bool> placed(n, false);
  std::vector<size_t> order;
  order.reserve(n);
  auto pick = [&](bool require_connected) -> int {
    int best = -1;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      if (require_connected) {
        bool connected = false;
        for (size_t j : order) connected = connected || conn[i][j];
        // Under costing, an (estimated) at-most-one-row relation may jump
        // the connectivity queue: its cross join is free, and placing it
        // early can hand later scans a computable range bound — the clock
        // in every sliding-window policy is exactly this shape.
        bool tiny = options.enable_stats_costing && est[i] <= 1.5;
        if (!connected && !tiny) continue;
      }
      if (best < 0 || est[i] < est[size_t(best)]) best = int(i);
    }
    return best;
  };
  while (order.size() < n) {
    int next = order.empty() ? pick(false) : pick(true);
    if (next < 0) next = pick(false);
    placed[size_t(next)] = true;
    order.push_back(size_t(next));
  }
  return order;
}

}  // namespace

Planner::Planner(PlannerOptions options) : options_(options) {
  if (!options_.enable_optimizer) options_.enable_stats_costing = false;
}

Result<LogicalPlan> Planner::PlanLogical(const BoundQuery& bound) const {
  DL_ASSIGN_OR_RETURN(LogicalPlan plan, BuildLogicalPlan(bound));
  for (LogicalMember& member : plan.members) {
    DL_RETURN_NOT_OK(OptimizeMember(&member));
  }
  return plan;
}

Result<PhysicalPlan> Planner::Plan(const BoundQuery& bound) const {
  DL_TRACE_SPAN("planning", "plan");
  DL_ASSIGN_OR_RETURN(LogicalPlan logical, PlanLogical(bound));
  PhysicalPlan plan;
  plan.bound = &bound;
  plan.members.reserve(logical.members.size());
  for (const LogicalMember& member : logical.members) {
    DL_ASSIGN_OR_RETURN(PhysicalMember pm, Physicalize(member));
    plan.members.push_back(std::move(pm));
  }
  return plan;
}

Status Planner::OptimizeMember(LogicalMember* member) const {
  const BoundQuery& bq = *member->bq;
  LogicalFilter* filter = FilterOf(member->root.get());
  if (filter == nullptr) return Status::Internal("member without filter node");

  // Rule 1: constant folding. Constant conjuncts (no column refs) are
  // evaluated over an all-NULL row exactly as the run-time fold would.
  // Conjuncts past a folded-FALSE one were unreachable in the original
  // executor (it returned at the first FALSE), so they are dropped without
  // evaluation.
  {
    std::vector<const Expr*> kept;
    kept.reserve(filter->conjuncts.size());
    Row null_row(bq.total_slots, Value::Null());
    EvalContext ctx{&bq, &null_row, nullptr};
    for (const Expr* c : filter->conjuncts) {
      if (RelationMask(*c, bq) != 0) {
        kept.push_back(c);
        continue;
      }
      if (!options_.enable_optimizer) {
        kept.push_back(c);
        continue;
      }
      if (filter->provably_empty) continue;  // unreachable past a FALSE
      Result<bool> keep = EvalPredicate(*c, ctx);
      if (!keep.ok()) {
        kept.push_back(c);  // defer the evaluation error to run time
      } else if (!keep.value()) {
        filter->provably_empty = true;
      }
      // TRUE: the conjunct disappears.
    }
    filter->conjuncts = std::move(kept);
  }

  // Rule 2: join reordering. The tree is still pristine (no pushdown yet),
  // so reordering rebuilds the left-deep scan spine.
  if (options_.enable_optimizer && bq.relations.size() >= 2 &&
      filter->child != nullptr) {
    std::vector<size_t> order =
        ChooseJoinOrder(bq, filter->conjuncts, options_);
    bool identity = true;
    for (size_t j = 0; j < order.size(); ++j) identity &= order[j] == j;
    if (!identity) {
      LogicalNodePtr tree = std::make_unique<LogicalScan>(order[0]);
      for (size_t j = 1; j < order.size(); ++j) {
        auto join = std::make_unique<LogicalJoin>();
        join->left = std::move(tree);
        join->right = std::make_unique<LogicalScan>(order[j]);
        tree = std::move(join);
      }
      filter->child = std::move(tree);
    }
  }

  // Rules 3 + 4: predicate pushdown and equality-conjunct extraction, over
  // the (possibly reordered) spine. Constant conjuncts stay in the filter
  // for once-per-execution evaluation.
  std::vector<LogicalScan*> scans;
  std::vector<LogicalJoin*> joins;
  CollectTree(filter->child.get(), &scans, &joins);

  std::vector<const Expr*> remaining = std::move(filter->conjuncts);
  filter->conjuncts.clear();
  std::vector<bool> applied(remaining.size(), false);
  for (size_t i = 0; i < remaining.size(); ++i) {
    if (RelationMask(*remaining[i], bq) == 0) {
      filter->conjuncts.push_back(remaining[i]);
      applied[i] = true;
    }
  }

  uint64_t placed_mask = 0;
  for (size_t j = 0; j < scans.size(); ++j) {
    LogicalScan* scan = scans[j];
    uint64_t rel_bit = uint64_t(1) << scan->rel_idx;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (!applied[i] && RelationMask(*remaining[i], bq) == rel_bit) {
        scan->filters.push_back(remaining[i]);
        applied[i] = true;
      }
    }
    if (j > 0) {
      LogicalJoin* join = joins[j - 1];
      for (size_t i = 0; i < remaining.size(); ++i) {
        if (applied[i]) continue;
        uint64_t mask = RelationMask(*remaining[i], bq);
        if ((mask & ~(placed_mask | rel_bit)) != 0) continue;  // not yet
        const Expr* ls = nullptr;
        const Expr* rs = nullptr;
        if ((mask & rel_bit) != 0 &&
            AsEquiJoin(*remaining[i], bq, placed_mask, rel_bit, &ls, &rs)) {
          join->equi.push_back(remaining[i]);
        } else {
          join->residual.push_back(remaining[i]);
        }
        applied[i] = true;
      }
    }
    placed_mask |= rel_bit;
  }
  return Status::OK();
}

Result<PhysicalMember> Planner::Physicalize(const LogicalMember& member) const {
  const BoundQuery& bq = *member.bq;
  LogicalFilter* filter = FilterOf(member.root.get());
  if (filter == nullptr) return Status::Internal("member without filter node");
  std::vector<LogicalScan*> scans;
  std::vector<LogicalJoin*> joins;
  CollectTree(filter->child.get(), &scans, &joins);

  PhysicalMember pm;
  pm.bq = &bq;
  pm.provably_empty = filter->provably_empty;
  pm.runtime_constants = filter->conjuncts;

  Row null_row(bq.total_slots, Value::Null());
  EvalContext const_ctx{&bq, &null_row, nullptr};

  uint64_t placed_mask = 0;
  double left_est = -1;  ///< estimated rows of the accumulated left side
  for (size_t j = 0; j < scans.size(); ++j) {
    const LogicalScan* scan = scans[j];
    const BoundRelation& rel = bq.relations[scan->rel_idx];
    uint64_t rel_bit = uint64_t(1) << scan->rel_idx;

    PhysicalScan ps;
    ps.rel_idx = scan->rel_idx;
    ps.filters = scan->filters;
    ProgramLayout own_row;
    own_row.window_lo = bq.slot_offsets[scan->rel_idx];
    own_row.window_hi = own_row.window_lo + rel.schema.NumColumns();
    own_row.outside_window_null = true;
    for (const Expr* f : ps.filters) {
      ps.filter_programs.push_back(ExprProgram::Compile(*f, &bq, own_row));
    }
    if (rel.subquery != nullptr) {
      DL_ASSIGN_OR_RETURN(PhysicalPlan sub, Plan(*rel.subquery));
      ps.subplan = std::make_unique<PhysicalPlan>(std::move(sub));
    } else {
      // Rule 5: index-probe candidates from the pushed-down equalities.
      // Literals always qualify; under the optimizer, any constant
      // (relation-free, aggregate-free) side is folded at plan time. A
      // fold error just skips the candidate — the conjunct remains a scan
      // filter and fails at run time exactly as before.
      size_t offset = bq.slot_offsets[scan->rel_idx];
      size_t width = rel.schema.NumColumns();
      for (const Expr* p : ps.filters) {
        if (p->kind() != ExprKind::kBinary) continue;
        const auto& b = static_cast<const BinaryExpr&>(*p);
        if (b.op != "=") continue;
        for (int flip = 0; flip < 2; ++flip) {
          const Expr* col_side = flip == 0 ? b.lhs.get() : b.rhs.get();
          const Expr* val_side = flip == 0 ? b.rhs.get() : b.lhs.get();
          if (col_side->kind() != ExprKind::kColumnRef) continue;
          auto it = bq.column_slots.find(col_side);
          if (it == bq.column_slots.end()) continue;
          if (it->second < offset || it->second >= offset + width) continue;
          PhysicalProbe probe;
          probe.col = it->second - offset;
          probe.conjunct = p;
          if (val_side->kind() == ExprKind::kLiteral) {
            probe.value = static_cast<const LiteralExpr&>(*val_side).value;
          } else if (options_.enable_optimizer &&
                     RelationMask(*val_side, bq) == 0 &&
                     !ContainsAggregate(*val_side)) {
            Result<Value> v = Eval(*val_side, const_ctx);
            if (!v.ok()) continue;
            probe.value = std::move(v).value();
          } else {
            continue;
          }
          ps.probes.push_back(std::move(probe));
          break;  // at most one candidate per conjunct
        }
      }

      // Rule 6a: range-probe candidates from pushed-down comparisons with
      // a plan-time-constant bound. Gated on the optimizer so the naive
      // baseline stays exactly the original executor (which never probed
      // ranges); the conjunct remains a re-applied scan filter either way.
      if (options_.enable_optimizer) {
        for (const Expr* p : ps.filters) {
          if (p->kind() != ExprKind::kBinary) continue;
          const auto& b = static_cast<const BinaryExpr&>(*p);
          CompareOp op;
          if (!ParseRangeOp(b.op, &op)) continue;
          for (int flip = 0; flip < 2; ++flip) {
            const Expr* col_side = flip == 0 ? b.lhs.get() : b.rhs.get();
            const Expr* val_side = flip == 0 ? b.rhs.get() : b.lhs.get();
            int col = ScanColumnOf(*col_side, bq, scan->rel_idx);
            if (col < 0) continue;
            PhysicalRangeProbe probe;
            probe.col = size_t(col);
            probe.op = flip == 0 ? op : MirrorCompareOp(op);
            probe.conjunct = p;
            if (!FoldConstBound(*val_side, bq, options_.enable_optimizer,
                                &probe.value)) {
              continue;
            }
            probe.has_const = true;
            ps.range_probes.push_back(std::move(probe));
            break;  // at most one candidate per conjunct
          }
        }
      }
    }

    PhysicalJoin pj;
    if (j > 0) {
      const LogicalJoin* join = joins[j - 1];
      pj.residual = join->residual;
      pj.equi_conjuncts = join->equi;
      size_t offset = bq.slot_offsets[scan->rel_idx];
      ProgramLayout right_window;
      right_window.window_lo = offset;
      right_window.window_hi = offset + rel.schema.NumColumns();
      for (const Expr* r : pj.residual) {
        pj.residual_programs.push_back(
            ExprProgram::Compile(*r, &bq, right_window));
      }
      if (!join->equi.empty()) {
        pj.algo = JoinAlgo::kHashJoin;
        for (const Expr* e : join->equi) {
          const Expr* ls = nullptr;
          const Expr* rs = nullptr;
          if (!AsEquiJoin(*e, bq, placed_mask, rel_bit, &ls, &rs)) {
            return Status::Internal("equi-join classification changed");
          }
          pj.right_keys.push_back(rs);
          pj.left_key_programs.push_back(ExprProgram::Compile(*ls, &bq));
          pj.right_key_programs.push_back(ExprProgram::Compile(*rs, &bq));
        }
      }

      // Rule 6b: range-probe candidates from residual comparisons that
      // bound a column of this scan by an expression over already-placed
      // relations — the sliding-window shape `p.ts > c.ts - w` with the
      // single-row clock to the left. The bound is evaluated per execution
      // against the accumulated left side; the conjunct stays a residual
      // filter, so the probe only narrows the access path.
      if (options_.enable_optimizer && rel.subquery == nullptr) {
        for (const Expr* r : pj.residual) {
          if (r->kind() != ExprKind::kBinary) continue;
          const auto& b = static_cast<const BinaryExpr&>(*r);
          CompareOp op;
          if (!ParseRangeOp(b.op, &op)) continue;
          for (int flip = 0; flip < 2; ++flip) {
            const Expr* col_side = flip == 0 ? b.lhs.get() : b.rhs.get();
            const Expr* val_side = flip == 0 ? b.rhs.get() : b.lhs.get();
            int col = ScanColumnOf(*col_side, bq, scan->rel_idx);
            if (col < 0) continue;
            uint64_t bound_mask = RelationMask(*val_side, bq);
            if (bound_mask == 0 || (bound_mask & ~placed_mask) != 0 ||
                ContainsAggregate(*val_side)) {
              continue;
            }
            PhysicalRangeProbe probe;
            probe.col = size_t(col);
            probe.op = flip == 0 ? op : MirrorCompareOp(op);
            probe.bound_expr = val_side;
            probe.bound_program = ExprProgram::Compile(*val_side, &bq);
            probe.conjunct = r;
            ps.range_probes.push_back(std::move(probe));
            break;  // at most one candidate per conjunct
          }
        }
      }
    }

    // Rule 7: cost-based access path and cardinality estimates, only when
    // the plan-time relation carries maintained statistics (otherwise the
    // run-time adaptive probing is kept and EXPLAIN shows no estimates).
    const RelationData* rel_data =
        rel.subquery == nullptr ? rel.relation : nullptr;
    const TableStats* stats = rel_data != nullptr ? rel_data->Stats() : nullptr;
    if (options_.enable_stats_costing && stats != nullptr) {
      double base_rows = double(rel_data->NumRows());

      // Bound of a range probe as far as plan time can see it: the folded
      // constant, or the value under single-row left relations (clock).
      auto probe_bound = [&](const PhysicalRangeProbe& probe, Value* out) {
        if (probe.has_const) {
          *out = probe.value;
          return true;
        }
        return EvalSingleRowBound(*probe.bound_expr, bq, out);
      };

      double sel_all = 1.0;
      for (const Expr* f : ps.filters) {
        sel_all *= EstimateConjunctSelectivity(*f, bq, ps.rel_idx, stats,
                                               options_.enable_optimizer);
      }
      ps.est_rows = base_rows * sel_all;

      double seq_cost = base_rows;
      double hash_cost = std::numeric_limits<double>::infinity();
      for (const PhysicalProbe& probe : ps.probes) {
        if (!rel_data->HasHashIndex(probe.col)) continue;
        hash_cost = std::min(
            hash_cost,
            1.0 + base_rows * EstimateEqSelectivity(stats, probe.col));
      }
      double range_cost = std::numeric_limits<double>::infinity();
      for (const PhysicalRangeProbe& probe : ps.range_probes) {
        if (!rel_data->HasOrderedIndex(probe.col)) continue;
        // Combine every range probe on the same column (BETWEEN is two).
        double sel = 1.0;
        for (const PhysicalRangeProbe& other : ps.range_probes) {
          if (other.col != probe.col) continue;
          Value bound;
          bool have = probe_bound(other, &bound);
          sel *= EstimateRangeSelectivity(stats, other.col, other.op,
                                          have ? &bound : nullptr);
        }
        range_cost =
            std::min(range_cost, std::log2(std::max(base_rows, 2.0)) +
                                     base_rows * sel);
      }
      if (seq_cost <= hash_cost && seq_cost <= range_cost) {
        ps.chosen_path = AccessPath::kSeqScan;
      } else if (hash_cost <= range_cost) {
        ps.chosen_path = AccessPath::kHashProbe;
      } else {
        ps.chosen_path = AccessPath::kRangeScan;
      }

      // Join-output estimate: |L ⋈ R| ≈ |L|·|R| / Π ndv(right key), then
      // the residual conjuncts' selectivities (range residuals estimated
      // like pushed ranges, anything else by the default).
      if (j > 0 && left_est >= 0) {
        double est = left_est * ps.est_rows;
        for (const Expr* rs : pj.right_keys) {
          int col = ScanColumnOf(*rs, bq, ps.rel_idx);
          double ndv = col >= 0
                           ? EstimateColumnNdv(stats, size_t(col), base_rows)
                           : std::max(1.0, std::min(base_rows, 10.0));
          est /= std::max(1.0, ndv);
        }
        for (const Expr* r : pj.residual) {
          est *= EstimateConjunctSelectivity(*r, bq, ps.rel_idx, stats,
                                             options_.enable_optimizer);
        }
        pj.est_rows = est;
        left_est = est;
      } else if (j == 0) {
        left_est = ps.est_rows;
      } else {
        left_est = -1;
      }
    } else {
      left_est = -1;
    }

    if (j > 0) pm.joins.push_back(std::move(pj));
    pm.scans.push_back(std::move(ps));
    pm.scan_order.push_back(scan->rel_idx);
    placed_mask |= rel_bit;
  }

  pm.restore_input_order = false;
  for (size_t j = 0; j < pm.scan_order.size(); ++j) {
    if (pm.scan_order[j] != j) pm.restore_input_order = true;
  }

  const SelectStmt& stmt = *bq.stmt;
  ProgramLayout group_layout;
  group_layout.grouped = true;
  for (const ExprPtr& e : stmt.distinct_on) {
    pm.distinct_on_programs.push_back(ExprProgram::Compile(*e, &bq));
  }
  for (const ExprPtr& e : stmt.group_by) {
    pm.group_by_programs.push_back(ExprProgram::Compile(*e, &bq));
  }
  for (const FuncCallExpr* agg : bq.aggregates) {
    pm.aggregate_arg_programs.push_back(
        agg->star ? ExprProgram() : ExprProgram::Compile(*agg->args[0], &bq));
  }
  if (stmt.having != nullptr) {
    pm.having_program = ExprProgram::Compile(*stmt.having, &bq, group_layout);
  }
  for (const OutputColumn& col : bq.output_columns) {
    pm.output_programs.push_back(
        col.expr == nullptr
            ? ExprProgram()
            : ExprProgram::Compile(*col.expr, &bq,
                                   bq.is_grouped ? group_layout
                                                 : ProgramLayout()));
  }
  return pm;
}

}  // namespace datalawyer
