#include "policy/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "analysis/eval.h"
#include "analysis/expr_program.h"
#include "common/strings.h"

namespace datalawyer {
namespace {

/// Work caps: folding past this poisons the state (it can no longer stay
/// current), overlay evaluation past this merely falls back for the query.
constexpr size_t kFoldStepCap = 4'000'000;
constexpr size_t kEvalStepCap = 1'000'000;

constexpr int64_t kNoEnter = std::numeric_limits<int64_t>::min();
constexpr int64_t kNoExpire = std::numeric_limits<int64_t>::max();

/// What a compiled (sub)expression references: its program's slots,
/// classified by fold level.
struct RefScan {
  bool unknown = false;   ///< a column ref the binder did not slot
  bool clock = false;     ///< references the synthesized clock
  bool nonclock = false;  ///< references a foldable relation
  int max_level = -1;     ///< deepest referenced fold level
  uint64_t levels = 0;    ///< bit j: references fold level j
};

RefScan ScanRefs(const ExprProgram& program,
                 const std::vector<bool>& is_clock_slot,
                 const std::vector<int>& slot_level) {
  RefScan out;
  out.unknown = program.unresolved();
  for (size_t slot : program.slots()) {
    if (slot < is_clock_slot.size() && is_clock_slot[slot]) {
      out.clock = true;
      continue;
    }
    int level = slot < slot_level.size() ? slot_level[slot] : -1;
    if (level < 0) {
      out.unknown = true;
      continue;
    }
    out.nonclock = true;
    out.max_level = std::max(out.max_level, level);
    out.levels |= uint64_t(1) << level;
  }
  return out;
}

}  // namespace

std::unique_ptr<IncrementalState> IncrementalState::Build(
    const SelectStmt& stmt, const BoundQuery& bq, const UsageLog& log,
    const CatalogView* statics) {
  // Shape gates: one SELECT, literal select items (verdict = emptiness,
  // message = the first literal), nothing that reorders or truncates.
  if (stmt.union_next != nullptr) return nullptr;
  if (!stmt.distinct_on.empty() || !stmt.order_by.empty()) return nullptr;
  if (stmt.limit.has_value()) return nullptr;
  if (stmt.items.empty() || bq.stmt != &stmt) return nullptr;
  for (const SelectItem& item : stmt.items) {
    if (item.expr == nullptr || item.expr->kind() != ExprKind::kLiteral) {
      return nullptr;
    }
  }

  std::unique_ptr<IncrementalState> st(new IncrementalState());
  st->bq_ = &bq;
  st->total_slots_ = bq.total_slots;
  const Value& lit =
      static_cast<const LiteralExpr&>(*stmt.items[0].expr).value;
  // Render exactly as the full path renders a violating row's first column.
  st->message_ = lit.is_string() ? lit.AsString() : lit.ToString();

  // Relations: log relations fold from main + overlay from delta, statics
  // fold only, the clock becomes prefilled slots. Anything else (virtual
  // dl_* snapshots, subqueries) is full-only.
  const std::string clock_name = ToLower(UsageLog::ClockRelationName());
  size_t log_count = 0;
  for (size_t i = 0; i < bq.relations.size(); ++i) {
    const BoundRelation& rel = bq.relations[i];
    if (rel.subquery != nullptr) return nullptr;
    std::string name = ToLower(rel.table_name);
    if (name.empty()) return nullptr;
    size_t offset = bq.slot_offsets[i];
    size_t arity = rel.schema.NumColumns();
    if (name == clock_name) {
      for (size_t s = 0; s < arity; ++s) st->clock_slots_.push_back(offset + s);
      continue;
    }
    RelationState r;
    r.name = name;
    r.slot_offset = offset;
    r.arity = arity;
    if (log.IsLogRelation(name)) {
      r.is_log = true;
      r.main = log.main_table(name);
      r.delta = log.delta_table(name);
      if (r.main == nullptr || r.delta == nullptr) return nullptr;
      ++log_count;
    } else {
      const RelationData* found =
          statics != nullptr ? statics->Find(name) : nullptr;
      r.main = dynamic_cast<const Table*>(found);
      if (r.main == nullptr) return nullptr;
    }
    st->rels_.push_back(std::move(r));
  }
  if (log_count == 0 || st->rels_.size() > kMaxLevels) return nullptr;
  st->conjuncts_.resize(st->rels_.size());
  st->eq_probes_.resize(st->rels_.size());
  st->window_bounds_.resize(st->rels_.size());

  std::vector<int> slot_level(bq.total_slots, -1);
  for (size_t j = 0; j < st->rels_.size(); ++j) {
    for (size_t s = 0; s < st->rels_[j].arity; ++s) {
      slot_level[st->rels_[j].slot_offset + s] = int(j);
    }
  }
  std::vector<bool> is_clock_slot(bq.total_slots, false);
  for (size_t s : st->clock_slots_) is_clock_slot[s] = true;

  // WHERE conjuncts: clock-free ones are evaluated during the fold (at
  // their deepest referenced level); clock-referencing ones must be
  // slope-one window bounds `col OP f(clock)`.
  std::vector<const Expr*> conjuncts;
  if (stmt.where != nullptr) conjuncts = ConjunctPtrs(*stmt.where);
  for (const Expr* c : conjuncts) {
    ExprProgram program = ExprProgram::Compile(*c, &bq);
    RefScan refs = ScanRefs(program, is_clock_slot, slot_level);
    if (refs.unknown) return nullptr;
    if (!refs.clock) {
      if (refs.nonclock) {
        st->conjuncts_[refs.max_level].push_back(
            LevelConjunct{std::move(program), refs.levels});
        // Hash-probe candidate: `col = other` where `col` lives at this
        // level and `other` is fully bound by outer levels or constants.
        if (c->kind() == ExprKind::kBinary) {
          const auto& eq = static_cast<const BinaryExpr&>(*c);
          if (eq.op == "=") {
            for (bool col_on_left : {true, false}) {
              const Expr* side = col_on_left ? eq.lhs.get() : eq.rhs.get();
              const Expr* other = col_on_left ? eq.rhs.get() : eq.lhs.get();
              if (side->kind() != ExprKind::kColumnRef) continue;
              auto sit = bq.column_slots.find(side);
              if (sit == bq.column_slots.end()) continue;
              size_t slot = sit->second;
              const RelationState& rel = st->rels_[refs.max_level];
              if (slot < rel.slot_offset ||
                  slot >= rel.slot_offset + rel.arity) {
                continue;
              }
              ExprProgram other_program = ExprProgram::Compile(*other, &bq);
              RefScan oref = ScanRefs(other_program, is_clock_slot, slot_level);
              if (oref.unknown || oref.clock ||
                  oref.max_level >= refs.max_level) {
                continue;
              }
              st->eq_probes_[refs.max_level].push_back(
                  EqProbe{slot - rel.slot_offset, std::move(other_program)});
              break;
            }
          }
        }
      } else {
        st->constant_conjuncts_.push_back(c);
      }
      continue;
    }
    if (c->kind() != ExprKind::kBinary) return nullptr;
    const auto& bin = static_cast<const BinaryExpr&>(*c);
    CompareOp op;
    if (!ParseCompareOp(bin.op, &op) || op == CompareOp::kNe) return nullptr;
    RefScan lhs = ScanRefs(ExprProgram::Compile(*bin.lhs, &bq),
                           is_clock_slot, slot_level);
    RefScan rhs = ScanRefs(ExprProgram::Compile(*bin.rhs, &bq),
                           is_clock_slot, slot_level);
    if (lhs.unknown || rhs.unknown) return nullptr;
    const Expr* col = nullptr;
    const Expr* clk = nullptr;
    if (lhs.nonclock && !lhs.clock && rhs.clock && !rhs.nonclock) {
      col = bin.lhs.get();
      clk = bin.rhs.get();
    } else if (rhs.nonclock && !rhs.clock && lhs.clock && !lhs.nonclock) {
      col = bin.rhs.get();
      clk = bin.lhs.get();
      op = MirrorCompareOp(op);
    } else {
      return nullptr;
    }
    if (col->kind() != ExprKind::kColumnRef) return nullptr;
    auto slot_it = bq.column_slots.find(col);
    if (slot_it == bq.column_slots.end()) return nullptr;

    // The clock side must be affine with slope exactly 1: evaluate it at
    // clock = 0 and clock = 1 and require integer results one apart.
    Row scratch(bq.total_slots, Value::Null());
    EvalContext ctx{&bq, &scratch, nullptr};
    for (size_t s : st->clock_slots_) scratch[s] = Value(int64_t(0));
    Result<Value> at0 = Eval(*clk, ctx);
    for (size_t s : st->clock_slots_) scratch[s] = Value(int64_t(1));
    Result<Value> at1 = Eval(*clk, ctx);
    if (!at0.ok() || !at1.ok()) return nullptr;
    if (!(*at0).is_int64() || !(*at1).is_int64()) return nullptr;
    if ((*at1).AsInt64() - (*at0).AsInt64() != 1) return nullptr;

    WindowConjunct w;
    w.slot = slot_it->second;
    w.base = (*at0).AsInt64();
    switch (op) {
      case CompareOp::kGt:
        w.has_expire = true;  // ts > now + b  <=>  now < ts - b
        break;
      case CompareOp::kGe:
        w.has_expire = true;
        w.expire_adj = 1;
        break;
      case CompareOp::kLt:
        w.has_enter = true;
        w.enter_adj = 1;
        break;
      case CompareOp::kLe:
        w.has_enter = true;
        break;
      default:  // kEq
        w.has_enter = true;
        w.has_expire = true;
        w.expire_adj = 1;
        break;
    }
    st->windows_.push_back(w);
    int level = slot_level[w.slot];
    if (level < 0) return nullptr;
    st->conjuncts_[level].push_back(
        LevelConjunct{std::move(program), (uint64_t(1) << level) | kClockBit});
    st->window_bounds_[level].push_back(
        WindowBound{w.slot - st->rels_[level].slot_offset, w.base, op});
  }

  // GROUP BY: plain column references on non-clock slots.
  for (const ExprPtr& g : stmt.group_by) {
    if (g->kind() != ExprKind::kColumnRef) return nullptr;
    auto it = bq.column_slots.find(g.get());
    if (it == bq.column_slots.end()) return nullptr;
    if (is_clock_slot[it->second]) return nullptr;
    st->group_slots_.push_back(it->second);
  }

  // HAVING: every non-aggregate column reference must land on a grouped
  // slot (the synthesized representative row carries only those); the
  // aggregate call sites themselves are validated below. The grouped
  // program reads aggregates without descending into their arguments, so
  // its slots are exactly those references.
  st->exists_only_ = stmt.having == nullptr;
  if (st->exists_only_) {
    if (!bq.aggregates.empty()) return nullptr;
  } else {
    if (!bq.is_grouped) return nullptr;
    ProgramLayout grouped;
    grouped.grouped = true;
    st->having_ = ExprProgram::Compile(*stmt.having, &bq, grouped);
    if (st->having_.unresolved()) return nullptr;
    for (size_t slot : st->having_.slots()) {
      if (std::find(st->group_slots_.begin(), st->group_slots_.end(), slot) ==
          st->group_slots_.end()) {
        return nullptr;
      }
    }
  }

  // Aggregates: COUNT(*)/COUNT/SUM/MIN/MAX (DISTINCT included); AVG has no
  // removable accumulator that reproduces the executor's double math.
  for (const FuncCallExpr* f : bq.aggregates) {
    AggSpec spec;
    spec.distinct = f->distinct;
    if (f->name == "count") {
      if (f->star) {
        if (f->distinct) return nullptr;
        spec.kind = AggKind::kCountStar;
      } else {
        spec.kind = AggKind::kCount;
      }
    } else if (f->name == "sum") {
      spec.kind = AggKind::kSum;
    } else if (f->name == "min") {
      spec.kind = AggKind::kMin;
    } else if (f->name == "max") {
      spec.kind = AggKind::kMax;
    } else {
      return nullptr;
    }
    if (spec.kind != AggKind::kCountStar) {
      if (f->args.size() != 1 || f->args[0] == nullptr) return nullptr;
      spec.arg = ExprProgram::Compile(*f->args[0], &bq);
      RefScan refs = ScanRefs(spec.arg, is_clock_slot, slot_level);
      if (refs.unknown || refs.clock) return nullptr;
    }
    st->aggs_.push_back(spec);
  }

  // Relation-free conjuncts never change value: evaluate them once. An
  // error means the shape is not safely classifiable; FALSE/NULL means the
  // statement can never produce input rows.
  {
    Row scratch(bq.total_slots, Value::Null());
    EvalContext ctx{&bq, &scratch, nullptr};
    for (const Expr* c : st->constant_conjuncts_) {
      Result<bool> r = EvalPredicate(*c, ctx);
      if (!r.ok()) return nullptr;
      if (!*r) {
        st->constant_false_ = true;
        break;
      }
    }
  }

  st->permanent_sources_.resize(st->rels_.size());
  st->ClearState();
  return st;
}

void IncrementalState::ClearState() {
  groups_.clear();
  pending_.clear();
  active_.clear();
  for (std::unordered_set<int64_t>& ids : permanent_sources_) ids.clear();
  total_active_ = 0;
  for (RelationState& r : rels_) {
    r.folded_below = 0;
    r.folded_epoch = r.main->mutation_epoch();
  }
  built_ = false;
  ready_ = false;
}

void IncrementalState::Advance(int64_t now, size_t* rebuilds) {
  ++advance_count_;
  if (poisoned()) {
    ready_ = false;
    return;
  }
  bool invalid = ready_ && now < current_now_;
  // A dependency that moved by exactly its last retraction (a compaction
  // delete) is subtracted; any other deletion invalidates the state.
  std::vector<const std::vector<int64_t>*> retracted(rels_.size(), nullptr);
  bool any_retracted = false;
  for (size_t j = 0; j < rels_.size(); ++j) {
    const RelationState& r = rels_[j];
    if (r.main->mutation_epoch() == r.folded_epoch) continue;
    const Table::Retraction& rt = r.main->last_retraction();
    if (rt.valid && rt.from_epoch == r.folded_epoch &&
        r.main->mutation_epoch() == rt.from_epoch + 1) {
      retracted[j] = &rt.row_ids;
      any_retracted = true;
    } else {
      invalid = true;
    }
  }
  // An unbuilt state holds nothing a retraction could touch.
  if (!invalid && any_retracted && built_ && !Retract(retracted)) {
    invalid = true;
  }
  if (invalid) {
    ClearState();
    // Exponential-backoff cooldown: dependencies invalidated in quick
    // succession (user DML deleting rows every query) would otherwise
    // trigger a full rebuild per query — strictly worse than the plain
    // full evaluation the fallback already provides.
    if (advance_count_ - last_invalid_at_ <= 4) {
      backoff_ = std::min(backoff_ + 1, 6);
    } else {
      backoff_ = 0;
    }
    last_invalid_at_ = advance_count_;
    cooldown_until_ = advance_count_ + ((uint64_t(1) << backoff_) - 1);
  } else if (any_retracted) {
    for (RelationState& r : rels_) r.folded_epoch = r.main->mutation_epoch();
  }
  if (poisoned() || (!built_ && advance_count_ < cooldown_until_)) {
    ready_ = false;
    return;
  }
  bool full_build = !built_;
  bool growth = false;
  for (RelationState& r : rels_) {
    r.folded_rows = r.main->LowerBoundRowId(r.folded_below);
    if (r.folded_rows < r.main->NumRows()) growth = true;
  }
  if (growth) {
    if (!FoldGrowth(now)) {
      Poison();
      ready_ = false;
      return;
    }
    if (poisoned()) {  // an Apply hit a non-mirrorable value
      ready_ = false;
      return;
    }
  }
  for (RelationState& r : rels_) {
    r.folded_below = r.main->next_row_id();
    r.folded_epoch = r.main->mutation_epoch();
  }
  if (full_build && ever_built_ && rebuilds != nullptr) ++*rebuilds;
  built_ = true;
  ever_built_ = true;
  ActivatePending(now);
  ExpireActive(now);
  if (poisoned()) {
    ready_ = false;
    return;
  }
  current_now_ = now;
  ready_ = true;
}

bool IncrementalState::Retract(
    const std::vector<const std::vector<int64_t>*>& retracted) {
  for (size_t j = 0; j < rels_.size(); ++j) {
    if (retracted[j] == nullptr) continue;
    for (int64_t id : *retracted[j]) {
      if (permanent_sources_[j].count(id) > 0) return false;
    }
  }
  auto hit = [&](const Contribution& c) {
    for (size_t j = 0; j < rels_.size(); ++j) {
      const std::vector<int64_t>* ids = retracted[j];
      if (ids != nullptr &&
          std::binary_search(ids->begin(), ids->end(), c.sources[j])) {
        return true;
      }
    }
    return false;
  };
  for (auto it = pending_.begin(); it != pending_.end();) {
    it = hit(it->second) ? pending_.erase(it) : std::next(it);
  }
  for (auto it = active_.begin(); it != active_.end();) {
    if (!hit(it->second)) {
      ++it;
      continue;
    }
    UnapplyContribution(it->second);
    it = active_.erase(it);
  }
  return true;
}

IncrementalState::WalkRow IncrementalState::StartWalk(int64_t now) const {
  WalkRow w;
  w.slots.assign(total_slots_, Value::Null());
  for (size_t s : clock_slots_) w.slots[s] = Value(now);
  return w;
}

bool IncrementalState::BindRow(const WalkSpec& spec, size_t level,
                               const Table* table, size_t i, WalkRow* w,
                               bool* pass) const {
  const RelationState& r = rels_[level];
  const Row& row = table->RowAt(i);
  w->positions[level] = i;
  size_t arity = std::min(r.arity, row.size());
  for (size_t c = 0; c < arity; ++c) {
    w->slots[r.slot_offset + c] = row[c];
  }
  ProgramInput in;
  in.row = w->slots;
  *pass = true;
  for (const LevelConjunct& c : conjuncts_[level]) {
    if ((c.reads & spec.unbound) != 0) continue;
    if (!c.program.Test(in, pass).ok()) return false;
    if (!*pass) return true;
  }
  return true;
}

template <typename Sink>
IncrementalState::WalkEnd IncrementalState::Walk(const WalkSpec& spec,
                                                 size_t level, WalkRow* w,
                                                 Sink& sink) const {
  if (level == rels_.size()) {
    return sink(*w) ? WalkEnd::kDone : WalkEnd::kStopped;
  }
  const LevelRead read = spec.reads[level];
  if (read == LevelRead::kSkip) return Walk(spec, level + 1, w, sink);
  const RelationState& r = rels_[level];
  auto visit = [&](const Table* table, size_t i) {
    if (++w->steps > spec.cap) return WalkEnd::kCap;
    bool pass = false;
    if (!BindRow(spec, level, table, i, w, &pass)) return WalkEnd::kError;
    return pass ? Walk(spec, level + 1, w, sink) : WalkEnd::kDone;
  };
  WalkEnd end = WalkEnd::kDone;
  auto scan = [&](const Table* table, size_t begin, size_t stop) {
    for (size_t i = begin; i < stop && end == WalkEnd::kDone; ++i) {
      end = visit(table, i);
    }
  };
  // The delta side is the small staged increment: a plain scan.
  if (read == LevelRead::kDelta) {
    scan(r.delta, 0, r.delta->NumRows());
    return end;
  }
  // The main side can answer through an index probe (all conjuncts still
  // re-apply).
  size_t begin = read == LevelRead::kUnfolded ? r.folded_rows : 0;
  size_t stop = read == LevelRead::kFolded ? r.folded_rows : r.main->NumRows();
  std::vector<size_t> candidates;
  bool fold_mode = (spec.unbound & kClockBit) != 0;
  if (ProbePositions(level, fold_mode, spec.now, w->slots, &candidates)) {
    for (size_t i : candidates) {
      if (end != WalkEnd::kDone) break;
      if (i >= begin && i < stop) end = visit(r.main, i);
    }
  } else {
    scan(r.main, begin, stop);
  }
  if (read == LevelRead::kMainThenDelta && r.delta != nullptr) {
    scan(r.delta, 0, r.delta->NumRows());
  }
  return end;
}

bool IncrementalState::FoldGrowth(int64_t now) {
  if (constant_false_) return true;
  // Delta-join decomposition: term t pairs relation t's new suffix with
  // old rows before it and full tables after it, so the union over terms
  // enumerates exactly the new tuples of the join, each once.
  WalkSpec spec;
  spec.unbound = kClockBit;  // windows become [enter, expire) intervals
  spec.now = now;
  spec.cap = kFoldStepCap;
  WalkRow w = StartWalk(now);
  auto emit = [&](const WalkRow& t) { return EmitContribution(t, now); };
  for (size_t t = 0; t < rels_.size(); ++t) {
    if (rels_[t].folded_rows >= rels_[t].main->NumRows()) continue;
    std::fill_n(spec.reads.begin(), t, LevelRead::kFolded);
    spec.reads[t] = LevelRead::kUnfolded;
    std::fill(spec.reads.begin() + t + 1, spec.reads.end(), LevelRead::kMain);
    if (Walk(spec, 0, &w, emit) != WalkEnd::kDone) return false;
  }
  return true;
}

bool IncrementalState::ProbePositions(size_t level, bool fold_mode,
                                      int64_t now, const Row& slots,
                                      std::vector<size_t>* out) const {
  const RelationState& r = rels_[level];
  const Table* table = r.main;
  ProgramInput in;
  in.row = slots;
  bool answered = false;
  // Hash probes first (typically the most selective). An evaluation error
  // just skips the probe: the plain scan re-raises it through the conjunct.
  for (const EqProbe& p : eq_probes_[level]) {
    Value v;
    if (!p.other.Evaluate(in, &v).ok()) continue;
    if (v.is_null()) {
      // `col = NULL` never holds; the conjunct rejects every row.
      out->clear();
      return true;
    }
    // The index keys on SQL `=` (ValueKeyEq), so one lookup finds every
    // numerically equal stored value, in ascending position order.
    std::vector<size_t> hits;
    if (!table->IndexLookup(p.col, v, &hits)) continue;
    if (!answered || hits.size() < out->size()) *out = std::move(hits);
    answered = true;
  }
  if (answered) return true;
  // Window-derived range probes: at clock `now` the bound compares the
  // column against base + now. Expire-type lower bounds also hold during
  // folds — the window only moves forward, so a row below the bound can
  // never satisfy its conjunct at this or any later clock. Enter-type
  // upper bounds would drop future (pending_) rows, so eval-mode only.
  int64_t bound_val = 0;
  for (const WindowBound& w : window_bounds_[level]) {
    if (__builtin_add_overflow(now, w.base, &bound_val)) continue;
    Value bound(bound_val);
    const Value* lo = nullptr;
    bool lo_inc = false;
    const Value* hi = nullptr;
    bool hi_inc = false;
    switch (w.op) {
      case CompareOp::kGt:
        lo = &bound;
        break;
      case CompareOp::kGe:
        lo = &bound;
        lo_inc = true;
        break;
      case CompareOp::kLt:
        if (fold_mode) continue;
        hi = &bound;
        break;
      case CompareOp::kLe:
        if (fold_mode) continue;
        hi = &bound;
        hi_inc = true;
        break;
      case CompareOp::kEq:
        lo = &bound;
        lo_inc = true;
        if (!fold_mode) {
          hi = &bound;
          hi_inc = true;
        }
        break;
      case CompareOp::kNe:  // never a window bound
        continue;
    }
    std::vector<size_t> hits;
    if (!table->RangeLookup(w.col, lo, lo_inc, hi, hi_inc, &hits)) continue;
    if (!answered || hits.size() < out->size()) *out = std::move(hits);
    answered = true;
  }
  return answered;
}

bool IncrementalState::EmitContribution(const WalkRow& w, int64_t now) {
  int64_t enter_at = kNoEnter;
  int64_t expire_at = kNoExpire;
  for (const WindowConjunct& win : windows_) {
    const Value& v = w.slots[win.slot];
    if (v.is_null()) return true;  // NULL comparisons never hold
    if (!v.is_int64()) return false;  // non-integer timestamp: poison
    int64_t ts = v.AsInt64();
    if (win.has_enter) {
      enter_at = std::max(enter_at, ts - win.base + win.enter_adj);
    }
    if (win.has_expire) {
      expire_at = std::min(expire_at, ts - win.base + win.expire_adj);
    }
  }
  if (enter_at >= expire_at) return true;  // empty window
  // Evaluation only ever happens at observed query clocks, and the clock
  // is monotonic: a window that already closed can never become active.
  if (expire_at <= now) return true;

  Contribution c;
  c.enter_at = enter_at;
  c.expire_at = expire_at;
  c.sources.resize(rels_.size());
  for (size_t j = 0; j < rels_.size(); ++j) {
    c.sources[j] = rels_[j].main->RowIdAt(w.positions[j]);
  }
  if (!exists_only_ && !TupleGroup(w.slots, &c.key, &c.args)) return false;
  if (enter_at > now) {
    pending_.emplace(enter_at, std::move(c));
    return true;
  }
  Activate(std::move(c));
  return true;
}

bool IncrementalState::TupleGroup(const Row& slots, Row* key,
                                  std::vector<Value>* args) const {
  key->clear();
  for (size_t s : group_slots_) key->push_back(slots[s]);
  args->resize(aggs_.size());
  ProgramInput in;
  in.row = slots;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    if (a.kind == AggKind::kCountStar) continue;
    Value& v = (*args)[i];
    if (!a.arg.Evaluate(in, &v).ok()) return false;
    if (a.kind == AggKind::kSum && !v.is_null() && !v.is_int64()) {
      return false;
    }
  }
  return true;
}

void IncrementalState::Activate(Contribution c) {
  ++total_active_;
  if (!exists_only_ && !ApplyTuple(c.args, &groups_[c.key])) {
    Poison();
    return;
  }
  if (c.expire_at < kNoExpire) {
    active_.emplace(c.expire_at, std::move(c));
    return;
  }
  for (size_t j = 0; j < c.sources.size(); ++j) {
    permanent_sources_[j].insert(c.sources[j]);
  }
}

bool IncrementalState::ApplyTuple(const std::vector<Value>& args,
                                  GroupState* g) const {
  if (g->aggs.size() != aggs_.size()) g->aggs.resize(aggs_.size());
  ++g->active;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    const Value& v = args[i];
    AggState* s = &g->aggs[i];
    if (spec.kind == AggKind::kCountStar) {
      ++s->count;
      continue;
    }
    if (v.is_null()) continue;
    switch (spec.kind) {
      case AggKind::kCountStar:
        break;
      case AggKind::kCount:
      case AggKind::kSum: {
        int64_t add = spec.kind == AggKind::kSum ? v.AsInt64() : 0;
        if (spec.distinct) {
          if (++s->distinct[v] == 1) s->sum_int += add;
        } else {
          ++s->count;
          s->sum_int += add;
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        if (v.is_double() && !std::isfinite(v.AsDouble())) return false;
        // The executor keeps the first-seen value among order-equal ones;
        // with deletions that choice is order-dependent, so a tie between
        // structurally different values (1 vs 1.0) is not mirrorable.
        auto range = s->ordered.equal_range(v);
        if (range.first != range.second && *range.first != v) return false;
        s->ordered.insert(v);
        break;
      }
    }
  }
  return true;
}

void IncrementalState::UnapplyContribution(const Contribution& c) {
  --total_active_;
  if (exists_only_) return;
  auto it = groups_.find(c.key);
  if (it == groups_.end()) {
    Poison();
    return;
  }
  GroupState& g = it->second;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    const Value& v = c.args[i];
    AggState& s = g.aggs[i];
    switch (spec.kind) {
      case AggKind::kCountStar:
        --s.count;
        break;
      case AggKind::kCount:
      case AggKind::kSum: {
        if (v.is_null()) break;
        if (spec.distinct) {
          auto dit = s.distinct.find(v);
          if (dit == s.distinct.end()) {
            Poison();
            return;
          }
          if (--dit->second == 0) {
            if (spec.kind == AggKind::kSum) s.sum_int -= v.AsInt64();
            s.distinct.erase(dit);
          }
        } else {
          --s.count;
          if (spec.kind == AggKind::kSum) s.sum_int -= v.AsInt64();
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        if (v.is_null()) break;
        auto oit = s.ordered.find(v);
        if (oit == s.ordered.end()) {
          Poison();
          return;
        }
        s.ordered.erase(oit);
        break;
      }
    }
  }
  if (--g.active == 0) groups_.erase(it);
}

void IncrementalState::ActivatePending(int64_t now) {
  while (!pending_.empty() && pending_.begin()->first <= now) {
    Contribution c = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    if (c.expire_at <= now) continue;  // window passed between queries
    Activate(std::move(c));
    if (poisoned()) return;
  }
}

void IncrementalState::ExpireActive(int64_t now) {
  while (!active_.empty() && active_.begin()->first <= now) {
    UnapplyContribution(active_.begin()->second);
    if (poisoned()) return;
    active_.erase(active_.begin());
  }
}

IncrementalState::Verdict IncrementalState::Evaluate(int64_t now) const {
  Verdict out;
  if (poisoned() || !ready_ || now != current_now_) return out;

  bool any_delta = false;
  for (const RelationState& r : rels_) {
    if (r.delta != nullptr && r.delta->NumRows() > 0) any_delta = true;
  }

  bool any_tuple = false;
  Groups overlay;
  if (any_delta && !constant_false_) {
    // Same decomposition as the fold, with "old" = the committed main and
    // "new" = the staged delta: term t pairs relation t's delta with mains
    // before it and main + delta after it.
    WalkSpec spec;
    spec.now = now;
    spec.cap = kEvalStepCap;
    WalkRow w = StartWalk(now);
    Row key;
    std::vector<Value> args;
    auto accumulate = [&](const WalkRow& t) {
      any_tuple = true;
      if (exists_only_) return true;  // existence suffices
      return TupleGroup(t.slots, &key, &args) &&
             ApplyTuple(args, &overlay[key]);
    };
    for (size_t t = 0; t < rels_.size(); ++t) {
      if (rels_[t].delta == nullptr || rels_[t].delta->NumRows() == 0) {
        continue;
      }
      std::fill_n(spec.reads.begin(), t, LevelRead::kMain);
      spec.reads[t] = LevelRead::kDelta;
      std::fill(spec.reads.begin() + t + 1, spec.reads.end(),
                LevelRead::kMainThenDelta);
      WalkEnd end = Walk(spec, 0, &w, accumulate);
      if (end == WalkEnd::kCap) return out;  // fallback for this query
      if (end != WalkEnd::kDone) {
        Poison();
        return out;
      }
    }
  }

  if (exists_only_) {
    out.supported = true;
    out.violated = total_active_ > 0 || any_tuple;
    return out;
  }

  bool violated = false;
  for (const auto& [key, og] : overlay) {
    auto it = groups_.find(key);
    const GroupState* sg = it == groups_.end() ? nullptr : &it->second;
    if (!CheckGroup(key, sg, &og, &violated)) return out;
  }
  for (const auto& [key, sg] : groups_) {
    if (overlay.count(key) > 0) continue;
    if (!CheckGroup(key, &sg, nullptr, &violated)) return out;
  }
  if (groups_.empty() && overlay.empty() && bq_->stmt->group_by.empty()) {
    // ProjectGrouped synthesizes one empty global group: COUNT -> 0, the
    // other aggregates -> NULL, evaluated against an all-NULL row.
    if (!CheckGroup(Row(), nullptr, nullptr, &violated)) return out;
  }
  out.supported = true;
  out.violated = violated;
  return out;
}

bool IncrementalState::IncrementMayJoin(const std::set<std::string>& generated,
                                        int64_t now) const {
  if (constant_false_) return false;
  // Only the delta tables of the generated log relations are bound; a
  // conjunct reading any other level is dropped, which only enlarges the
  // join.
  WalkSpec spec;
  spec.now = now;
  spec.cap = kEvalStepCap;
  for (size_t j = 0; j < rels_.size(); ++j) {
    bool live = rels_[j].is_log && generated.count(rels_[j].name) > 0;
    spec.reads[j] = live ? LevelRead::kDelta : LevelRead::kSkip;
    if (!live) spec.unbound |= uint64_t(1) << j;
  }
  WalkRow w = StartWalk(now);
  auto found = [](const WalkRow&) { return false; };
  // A tuple, the work cap, or an expression error: conservatively "may".
  return Walk(spec, 0, &w, found) != WalkEnd::kDone;
}

bool IncrementalState::MergedAggValue(size_t i, const AggState* s,
                                      const AggState* o, Value* out) const {
  const AggSpec& spec = aggs_[i];
  int64_t count = (s != nullptr ? s->count : 0) + (o != nullptr ? o->count : 0);
  int64_t sum =
      (s != nullptr ? s->sum_int : 0) + (o != nullptr ? o->sum_int : 0);
  if (spec.distinct) {
    // A value both halves hold counts, and sums, once.
    count = s != nullptr ? int64_t(s->distinct.size()) : 0;
    sum = s != nullptr ? s->sum_int : 0;
    if (o != nullptr) {
      for (const auto& [k, n] : o->distinct) {
        if (s != nullptr && s->distinct.count(k) > 0) continue;
        ++count;
        if (spec.kind == AggKind::kSum) sum += k.AsInt64();
      }
    }
  }
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      *out = Value(count);
      return true;
    case AggKind::kSum:
      *out = count > 0 ? Value(sum) : Value::Null();
      return true;
    case AggKind::kMin:
    case AggKind::kMax: {
      bool want_min = spec.kind == AggKind::kMin;
      const Value* best = nullptr;
      for (const AggState* half : {s, o}) {
        if (half == nullptr || half->ordered.empty()) continue;
        const Value& v =
            want_min ? *half->ordered.begin() : *half->ordered.rbegin();
        if (best == nullptr || (want_min ? v < *best : *best < v)) {
          best = &v;
        } else if (!(v < *best) && !(*best < v) && v != *best) {
          return false;  // structural tie
        }
      }
      *out = best != nullptr ? *best : Value::Null();
      return true;
    }
  }
  return false;
}

bool IncrementalState::CheckGroup(const Row& key, const GroupState* s,
                                  const GroupState* o, bool* violated) const {
  std::vector<Value> agg_values(aggs_.size());
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggState* as =
        s != nullptr && !s->aggs.empty() ? &s->aggs[i] : nullptr;
    const AggState* oa = o != nullptr ? &o->aggs[i] : nullptr;
    if (!MergedAggValue(i, as, oa, &agg_values[i])) {
      Poison();
      return false;
    }
  }
  Row representative(total_slots_);
  for (size_t i = 0; i < group_slots_.size() && i < key.size(); ++i) {
    representative[group_slots_[i]] = key[i];
  }
  ProgramInput in;
  in.row = representative;
  in.aggs = agg_values.data();
  bool pass = false;
  if (!having_.Test(in, &pass).ok()) {
    Poison();
    return false;
  }
  if (pass) *violated = true;
  return true;
}

}  // namespace datalawyer
