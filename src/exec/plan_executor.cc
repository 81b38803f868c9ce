#include "exec/plan_executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>

#include "analysis/eval.h"
#include "common/trace.h"
#include "common/value_hash.h"
#include "exec/aggregates.h"

namespace datalawyer {

namespace {

/// Sorts and deduplicates a lineage set in place.
void NormalizeLineage(LineageSet* lineage) {
  std::sort(lineage->begin(), lineage->end());
  lineage->erase(std::unique(lineage->begin(), lineage->end()),
                 lineage->end());
}

/// Appends printf-formatted text (one short annotation) to *out.
void Appendf(std::string* out, const char* fmt, ...) {
  char buf[128];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

/// Moves *src's elements onto the end of *dst, in bulk.
template <typename T>
void AppendMoved(std::vector<T>* dst, std::vector<T>* src) {
  if (dst->empty()) {
    *dst = std::move(*src);
    return;
  }
  dst->insert(dst->end(), std::make_move_iterator(src->begin()),
              std::make_move_iterator(src->end()));
}

/// Moves src's rows and lineage sets onto the end of *dst (a projection's
/// morsel merge, a UNION link).
bool AppendResult(QueryResult* dst, QueryResult&& src) {
  AppendMoved(&dst->rows, &src.rows);
  AppendMoved(&dst->lineage, &src.lineage);
  return true;
}

/// Reorders *v so that element i is the old element perm[i].
template <typename T>
void Permute(std::vector<T>* v, const std::vector<size_t>& perm) {
  std::vector<T> out(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) out[i] = std::move((*v)[perm[i]]);
  *v = std::move(out);
}

/// Runs `key_programs` over `row` into *key; sets *null_key instead when a
/// key part is NULL (SQL: NULL keys never join).
Status EvalJoinKey(const std::vector<ExprProgram>& key_programs,
                   const Row& row, Row* key, bool* null_key) {
  ProgramInput in;
  in.row = row;
  key->clear();
  key->reserve(key_programs.size());
  *null_key = false;
  for (const ExprProgram& p : key_programs) {
    Value v;
    DL_RETURN_NOT_OK(p.Evaluate(in, &v));
    if (v.is_null()) {
      *null_key = true;
      return Status::OK();
    }
    key->push_back(std::move(v));
  }
  return Status::OK();
}

/// Evaluates `pm`'s output columns over `in` into *out; a `*` column
/// copies its slot of in.row.
Status ProjectRow(const PhysicalMember& pm, const ProgramInput& in, Row* out) {
  const std::vector<OutputColumn>& cols = pm.bq->output_columns;
  out->resize(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].expr != nullptr) {
      DL_RETURN_NOT_OK(pm.output_programs[c].Evaluate(in, &(*out)[c]));
    } else {
      (*out)[c] = in.row.data[cols[c].slot];
    }
  }
  return Status::OK();
}

/// Tests `filters` in order against `in`: *keep is false at the first one
/// that is not TRUE.
Status TestAll(const std::vector<ExprProgram>& filters, const ProgramInput& in,
               bool* keep) {
  *keep = true;
  for (const ExprProgram& f : filters) {
    DL_RETURN_NOT_OK(f.Test(in, keep));
    if (!*keep) break;
  }
  return Status::OK();
}

/// The fragment of a morselized operator that writes into shared,
/// index-addressed arrays instead (the hash join's key precomputation).
struct NoFragment {};

}  // namespace

const char* MorselClassName(MorselClass cls) {
  switch (cls) {
    case MorselClass::kScan:
      return "scan";
    case MorselClass::kJoinBuild:
      return "join_build";
    case MorselClass::kJoinProbe:
      return "join_probe";
    case MorselClass::kNestedLoop:
      return "nested_loop";
    case MorselClass::kProject:
      return "project";
    case MorselClass::kAggregate:
      return "aggregate";
  }
  return "?";
}

void MorselFeedback::Record(MorselClass cls, double total_us, uint64_t rows) {
  if (rows == 0 || !(total_us > 0)) return;
  Pending& p = pending_[int(cls)];
  p.ns.fetch_add(uint64_t(total_us * 1000.0), std::memory_order_relaxed);
  p.rows.fetch_add(rows, std::memory_order_relaxed);
}

void MorselFeedback::Roll() {
  for (int c = 0; c < kNumMorselClasses; ++c) {
    uint64_t ns = pending_[c].ns.exchange(0, std::memory_order_relaxed);
    uint64_t rows = pending_[c].rows.exchange(0, std::memory_order_relaxed);
    if (ns == 0 || rows == 0) continue;
    double us_per_row = double(ns) / 1000.0 / double(rows);
    double& ewma = ewma_us_per_row_[c];
    ewma = ewma == 0 ? us_per_row : kAlpha * us_per_row + (1 - kAlpha) * ewma;
    double raw = kTargetUsPerMorsel / ewma;
    size_t suggested = raw >= double(kMaxSize)   ? kMaxSize
                       : raw <= double(kMinSize) ? kMinSize
                                                 : size_t(raw);
    suggested_[c].store(suggested, std::memory_order_relaxed);
  }
}

size_t MorselFeedback::SuggestedSize(MorselClass cls) const {
  return suggested_[int(cls)].load(std::memory_order_relaxed);
}

std::string MorselFeedback::Summary() const {
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%-12s %14s %10s\n", "class", "us/row ewma",
                "suggested");
  out += buf;
  for (int c = 0; c < kNumMorselClasses; ++c) {
    size_t suggested = suggested_[c].load(std::memory_order_relaxed);
    if (suggested == 0) {
      std::snprintf(buf, sizeof(buf), "%-12s %14s %10s\n",
                    MorselClassName(MorselClass(c)), "-", "-");
    } else {
      std::snprintf(buf, sizeof(buf), "%-12s %14.4f %10zu\n",
                    MorselClassName(MorselClass(c)), ewma_us_per_row_[c],
                    suggested);
    }
    out += buf;
  }
  return out;
}

void MorselTiming::Observe(double us) {
  if (count == 0) {
    min_us = max_us = us;
  } else {
    if (us < min_us) min_us = us;
    if (us > max_us) max_us = us;
  }
  buckets[LogBucketFor(us)]++;
  count++;
}

double MorselTiming::Percentile(double q) const {
  return LogBucketPercentile(buckets, Histogram::kNumBuckets, count, min_us,
                             max_us, q);
}

template <typename Frag, typename Span, typename Merge>
Status PlanExecutor::DriveMorsels(size_t n, MorselClass cls, Frag* out,
                                  const Span& span, const Merge& merge,
                                  MorselRun* run) {
  // The suggestion is read once: dispatch must use the step the split was
  // planned with even if a new suggestion lands mid-query.
  size_t step = options_.morsel_size;
  if (step != 0 && options_.morsel_feedback != nullptr) {
    size_t suggested = options_.morsel_feedback->SuggestedSize(cls);
    if (suggested != 0) step = suggested;
  }
  size_t morsels = step == 0 ? 1 : (n + step - 1) / step;
  if (options_.scheduler == nullptr ||
      options_.scheduler->num_threads() == 0 || morsels <= 1) {
    return span(size_t{0}, n, out);
  }
  bool timed = profiling_ || options_.morsel_feedback != nullptr;
  std::vector<Frag> frags(morsels);
  std::vector<Status> statuses(morsels);
  std::vector<double> morsel_us(timed ? morsels : 0);
  // Per morsel, µs from dispatch to its start on a helper thread; < 0 when
  // the caller ran it.
  std::vector<double> helper_start(morsels, -1);
  const std::thread::id caller = std::this_thread::get_id();
  double dispatch_us = timed ? ProfNowUs() : 0;
  options_.scheduler->ParallelFor(morsels, [&](size_t m) {
    double t0 = timed ? ProfNowUs() : 0;
    if (std::this_thread::get_id() != caller) {
      helper_start[m] = t0 - dispatch_us;
    }
    size_t lo = m * step;
    Frag local;
    statuses[m] = span(lo, std::min(n, lo + step), &local);
    frags[m] = std::move(local);
    if (timed) morsel_us[m] = ProfNowUs() - t0;
  });
  scan_stats_.morsels += morsels;
  double total_us = 0;
  for (double us : morsel_us) total_us += us;
  run->cpu_us += total_us;
  if (options_.morsel_feedback != nullptr) {
    options_.morsel_feedback->Record(cls, total_us, n);
  }
  if (profiling_) {
    for (double us : morsel_us) run->timing.Observe(us);
  }
  // Morsels are contiguous spans processed in row order and a span stops at
  // its first failing row, so the first failing morsel's error is the
  // error serial execution would have hit first (all earlier morsels ran
  // clean; expression programs are side-effect-free, so the extra rows
  // later morsels evaluated are unobservable).
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  for (Frag& frag : frags) {
    if (!merge(out, std::move(frag))) {
      *out = Frag{};
      return span(size_t{0}, n, out);
    }
  }
  run->morsels += morsels;
  double first_helper = -1;
  for (double start : helper_start) {
    if (start < 0) {
      ++run->caller_morsels;
    } else if (first_helper < 0 || start < first_helper) {
      first_helper = start;
    }
  }
  run->helper_start_us = std::max(run->helper_start_us, first_helper);
  return Status::OK();
}

bool PlanExecutor::AppendFragment(Intermediate* dst, Intermediate&& src) {
  AppendMoved(&dst->rows, &src.rows);
  AppendMoved(&dst->sources, &src.sources);
  return true;
}

void PlanExecutor::AppendTupleLineage(const Intermediate& in, size_t row,
                                      uint32_t* last, LineageSet* out) {
  size_t width = in.maps.size();
  const uint32_t* tuple = in.sources.data() + row * width;
  for (size_t j = 0; j < width; ++j) {
    if (last != nullptr) {
      if (last[j] == tuple[j]) continue;
      last[j] = tuple[j];
    }
    const SourceMap& map = in.maps[j];
    size_t pos = map.positions[tuple[j]];
    if (map.data != nullptr) {
      out->push_back(LineageEntry{map.rel, map.data->RowIdAt(pos)});
    } else {
      out->insert(out->end(), map.sub_lineage[pos].begin(),
                  map.sub_lineage[pos].end());
    }
  }
}

void PlanExecutor::RecordLineage(OperatorProfile* op, int64_t width,
                                 const std::vector<LineageSet>* built) const {
  if (!options_.capture_lineage) return;
  op->lineage_width = width;
  if (built == nullptr) return;
  op->lineage_entries = 0;
  for (const LineageSet& l : *built) op->lineage_entries += int64_t(l.size());
}

double PlanExecutor::ProfNowUs() {
  return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) /
         1000.0;
}

OperatorProfile& PlanExecutor::RecordOp(std::string label, double start_us,
                                        uint64_t rows_in, uint64_t rows_out,
                                        const MorselRun* run) {
  OperatorProfile& op = profile_.emplace_back();
  op.label = std::move(label);
  op.depth = profile_depth_;
  op.rows_in = rows_in;
  op.rows_out = rows_out;
  op.wall_us = ProfNowUs() - start_us;
  if (run != nullptr) op.morsel_run = *run;
  return op;
}

std::string RenderOperatorProfile(const std::vector<OperatorProfile>& ops,
                                  double total_us) {
  std::string out;
  double depth0_sum = 0;
  for (const OperatorProfile& op : ops) {
    out += "  ";
    for (int d = 0; d < op.depth; ++d) out += "    ";
    out += op.label;
    Appendf(&out, "  (rows %llu -> %llu, %.1f us",
            (unsigned long long)op.rows_in, (unsigned long long)op.rows_out,
            op.wall_us);
    if (op.est_rows >= 0) {
      Appendf(&out, ", est %lld", (long long)std::llround(op.est_rows));
    }
    if (op.peak_hash_entries > 0) {
      Appendf(&out, ", hash peak %zu", op.peak_hash_entries);
    }
    if (op.index_probes > 0) {
      Appendf(&out, ", probes %zu hits %zu", op.index_probes, op.index_hits);
    }
    if (op.lineage_width >= 0) {
      Appendf(&out, ", lineage width %lld", (long long)op.lineage_width);
    }
    if (op.lineage_entries >= 0) {
      Appendf(&out, ", lineage entries %lld", (long long)op.lineage_entries);
    }
    const MorselRun& run = op.morsel_run;
    if (run.morsels > 0) {
      Appendf(&out, ", morsels %zu (caller %zu helpers %zu", run.morsels,
              run.caller_morsels, run.morsels - run.caller_morsels);
      if (run.helper_start_us >= 0) {
        Appendf(&out, ", first helper +%.1f us", run.helper_start_us);
      }
      out += ")";
      if (op.partitions > 0) Appendf(&out, ", partitions %zu", op.partitions);
      if (run.cpu_us > 0) Appendf(&out, ", cpu %.1f us", run.cpu_us);
      const MorselTiming& t = run.timing;
      if (t.count > 0) {
        Appendf(&out, ", morsel min %.1f p50 %.1f p95 %.1f max %.1f us",
                t.min_us, t.Percentile(0.5), t.Percentile(0.95), t.max_us);
      }
    }
    out += ")\n";
    if (op.depth == 0) depth0_sum += op.wall_us;
  }
  Appendf(&out, "  total: %zu operators, %.1f us (wall %.1f us)\n", ops.size(),
          depth0_sum, total_us);
  return out;
}

uint32_t PlanExecutor::InternRelation(const std::string& name) {
  for (size_t i = 0; i < base_relations_.size(); ++i) {
    if (base_relations_[i] == name) return uint32_t(i);
  }
  base_relations_.push_back(name);
  return uint32_t(base_relations_.size() - 1);
}

Result<QueryResult> PlanExecutor::Run(const PhysicalPlan& plan) {
  DL_TRACE_SPAN("exec.query", "exec");
  if (plan.members.empty()) return Status::Internal("empty physical plan");
  DL_ASSIGN_OR_RETURN(QueryResult result, RunMember(plan.members[0]));

  // UNION chain, left-associative: a plain UNION link deduplicates the
  // accumulated result, UNION ALL concatenates.
  const BoundQuery* prev = plan.members[0].bq;
  for (size_t m = 1; m < plan.members.size(); ++m) {
    DL_ASSIGN_OR_RETURN(QueryResult next, RunMember(plan.members[m]));
    AppendResult(&result, std::move(next));
    if (!prev->stmt->union_all) {
      DL_RETURN_NOT_OK(ApplyDistinct(&result));
    }
    prev = plan.members[m].bq;
  }

  result.has_lineage = options_.capture_lineage;
  result.base_relations = base_relations_;
  DL_RETURN_NOT_OK(ApplyOrderAndLimit(*plan.bound, &result));
  return result;
}

Result<QueryResult> PlanExecutor::RunMember(const PhysicalMember& pm) {
  DL_ASSIGN_OR_RETURN(Intermediate joined, BuildJoin(pm));
  if (pm.restore_input_order) RestoreInputOrder(pm, &joined);

  const BoundQuery& bq = *pm.bq;
  const SelectStmt& stmt = *bq.stmt;

  // DISTINCT ON: keep the first row per key, pre-projection (§4.1.2 uses
  // this to pick one witness per group, Lemma 4.2).
  if (!stmt.distinct_on.empty()) {
    double prof_start = profiling_ ? ProfNowUs() : 0;
    uint64_t prof_rows_in = joined.rows.size();
    size_t width = joined.maps.size();
    Intermediate filtered;
    std::unordered_map<Row, size_t, RowHash> seen;
    for (size_t i = 0; i < joined.rows.size(); ++i) {
      Row key(pm.distinct_on_programs.size());
      ProgramInput in;
      in.row = joined.rows[i];
      for (size_t k = 0; k < key.size(); ++k) {
        DL_RETURN_NOT_OK(pm.distinct_on_programs[k].Evaluate(in, &key[k]));
      }
      if (seen.emplace(std::move(key), i).second) {
        filtered.rows.push_back(std::move(joined.rows[i]));
        auto tuple = joined.sources.begin() + i * width;
        filtered.sources.insert(filtered.sources.end(), tuple, tuple + width);
      }
    }
    filtered.maps = std::move(joined.maps);
    joined = std::move(filtered);
    if (profiling_) {
      OperatorProfile& op = RecordOp(
          "distinct on (" + std::to_string(stmt.distinct_on.size()) +
              " keys)",
          prof_start, prof_rows_in, joined.rows.size());
      op.peak_hash_entries = seen.size();
      RecordLineage(&op, int64_t(width));
    }
  }

  QueryResult result;
  if (bq.is_grouped) {
    DL_ASSIGN_OR_RETURN(result, ProjectGrouped(pm, std::move(joined)));
  } else {
    DL_ASSIGN_OR_RETURN(result, ProjectUngrouped(pm, std::move(joined)));
  }

  if (stmt.distinct) {
    DL_RETURN_NOT_OK(ApplyDistinct(&result));
  }
  return result;
}

Result<PlanExecutor::Intermediate> PlanExecutor::BuildJoin(
    const PhysicalMember& pm) {
  const BoundQuery& bq = *pm.bq;

  // Constant conjuncts the planner could not fold: evaluate once, in WHERE
  // order, so run-time errors (1/0 = 1) surface exactly as they used to.
  for (const Expr* c : pm.runtime_constants) {
    Row empty_row(bq.total_slots, Value::Null());
    EvalContext ctx{&bq, &empty_row, nullptr};
    DL_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*c, ctx));
    if (!keep) return Intermediate{};
  }
  if (pm.provably_empty) return Intermediate{};

  if (bq.relations.empty()) {
    // SELECT without FROM: one empty-width row.
    Intermediate out;
    out.rows.push_back(Row(bq.total_slots, Value::Null()));
    return out;
  }

  DL_ASSIGN_OR_RETURN(Intermediate current,
                      ScanRelation(pm, pm.scans[0], nullptr));
  for (size_t j = 1; j < pm.scans.size(); ++j) {
    DL_ASSIGN_OR_RETURN(Intermediate scanned,
                        ScanRelation(pm, pm.scans[j], &current));
    DL_ASSIGN_OR_RETURN(current, JoinStep(pm, pm.joins[j - 1],
                                          std::move(current),
                                          pm.scans[j].rel_idx,
                                          std::move(scanned)));
  }
  return current;
}

Result<PlanExecutor::Intermediate> PlanExecutor::ScanRelation(
    const PhysicalMember& pm, const PhysicalScan& ps,
    const Intermediate* left) {
  const BoundQuery& bq = *pm.bq;
  const BoundRelation& rel = bq.relations[ps.rel_idx];
  size_t offset = bq.slot_offsets[ps.rel_idx];
  size_t width = rel.schema.NumColumns();
  double prof_start = profiling_ ? ProfNowUs() : 0;
  // A base relation's row, or a subquery FROM item's answer row, is read by
  // its position; the scan's source map leads from there to lineage.
  const RelationData* data = nullptr;
  QueryResult sub;
  SourceMap map;
  ResolvedAccess access;
  if (ps.subplan != nullptr) {
    // Run the subquery's own plan. Its operators record one level deeper;
    // their time is also inside this scan's wall time.
    if (profiling_) ++profile_depth_;
    Result<QueryResult> sub_result = Run(*ps.subplan);
    if (profiling_) --profile_depth_;
    DL_ASSIGN_OR_RETURN(sub, std::move(sub_result));
  } else {
    // Re-resolve the base relation by name: a cached plan runs against a
    // fresh per-query catalog, and the pointer bound at plan time is stale.
    data = catalog_->Find(rel.table_name);
    if (data == nullptr) {
      return Status::Internal("plan references unknown relation '" +
                              rel.table_name + "'");
    }
    if (data->schema().NumColumns() != width) {
      return Status::Internal("schema drift under cached plan for '" +
                              rel.table_name + "'");
    }
    if (options_.capture_lineage) map.rel = InternRelation(rel.table_name);
    map.data = data;

    // Index pushdown. A left-bound range probe is usable only when every
    // left row yields the same bound value (the single-row clock always
    // does): the originating conjunct is re-applied downstream, so a
    // unanimous bound narrows without losing a join partner.
    access = ResolveAccessPath(
        ps, *data, [&](const PhysicalRangeProbe& probe, Value* bound) {
          if (left == nullptr || left->rows.empty()) return false;
          for (size_t i = 0; i < left->rows.size(); ++i) {
            ProgramInput in;
            in.row = left->rows[i];
            Value v;
            if (!probe.bound_program.Evaluate(in, &v).ok()) return false;
            if (i == 0) {
              *bound = std::move(v);
            } else if (*bound != v) {
              return false;
            }
          }
          return true;
        });
    scan_stats_.index_probes += access.hash_probes;
    scan_stats_.range_probes += access.range_probes;
    if (access.path == AccessPath::kHashProbe) ++scan_stats_.index_hits;
    if (access.path == AccessPath::kRangeScan) ++scan_stats_.range_hits;
  }
  bool narrowed = access.path != AccessPath::kSeqScan;

  // The filters test the source row itself; only a row that passes is
  // copied into a full-width row. Under capture its position stands in for
  // its source tuple until the source map takes it over below.
  size_t total = data == nullptr ? sub.rows.size()
                 : narrowed      ? access.positions.size()
                                 : data->NumRows();
  Intermediate out;
  MorselRun run;
  DL_RETURN_NOT_OK(DriveMorsels(
      total, MorselClass::kScan, &out,
      [&](size_t lo, size_t hi, Intermediate* frag) -> Status {
        for (size_t k = lo; k < hi; ++k) {
          size_t i = narrowed ? access.positions[k] : k;
          const Row& src = data != nullptr ? data->RowAt(i) : sub.rows[i];
          ProgramInput in;
          in.window = src;
          bool keep = true;
          DL_RETURN_NOT_OK(TestAll(ps.filter_programs, in, &keep));
          if (!keep) continue;
          Row full_row(bq.total_slots);
          std::copy(src.begin(), src.begin() + width,
                    full_row.begin() + offset);
          frag->rows.push_back(std::move(full_row));
          if (options_.capture_lineage) frag->sources.push_back(uint32_t(i));
        }
        return Status::OK();
      },
      &PlanExecutor::AppendFragment, &run));
  // Source tuples are kept for lineage capture or an order restore.
  if (options_.capture_lineage || pm.restore_input_order) {
    map.positions = std::move(out.sources);
    map.sub_lineage = std::move(sub.lineage);
    out.maps.push_back(std::move(map));
    out.sources.resize(out.rows.size());
    std::iota(out.sources.begin(), out.sources.end(), uint32_t{0});
  }
  if (profiling_) {
    std::string label = "scan " + SourceLabel(rel, data);
    if (data != nullptr) label += AccessToken(access);
    OperatorProfile& op =
        RecordOp(std::move(label), prof_start, total, out.rows.size(), &run);
    op.index_probes = access.hash_probes + access.range_probes;
    op.index_hits = narrowed ? 1 : 0;
    if (data != nullptr) op.est_rows = ps.est_rows;
    RecordLineage(&op, 1);
  }
  return out;
}

Result<PlanExecutor::Intermediate> PlanExecutor::JoinStep(
    const PhysicalMember& pm, const PhysicalJoin& pj, Intermediate left,
    size_t rel_idx, Intermediate right) {
  const BoundQuery& bq = *pm.bq;
  size_t offset = bq.slot_offsets[rel_idx];
  size_t width = bq.relations[rel_idx].schema.NumColumns();
  double prof_start = profiling_ ? ProfNowUs() : 0;
  MorselRun run;
  Intermediate out;

  // The residuals read the incoming relation's slots from the right row and
  // the rest from the left row; only a pair that passes is combined, its
  // source tuple the left tuple followed by the right one. The left side's
  // last candidate pair (`last`) takes over its row instead of copying it:
  // `left` is this step's own input, and morsels own disjoint left ranges.
  const size_t lw = left.maps.size();
  const size_t rw = right.maps.size();
  auto emit = [&](size_t li, size_t ri, bool last,
                  Intermediate* frag) -> Status {
    const Row& rrow = right.rows[ri];
    ProgramInput in;
    in.row = left.rows[li];
    in.window = RowView(rrow.data() + offset, width);
    bool keep = true;
    DL_RETURN_NOT_OK(TestAll(pj.residual_programs, in, &keep));
    if (!keep) return Status::OK();
    Row row = last ? std::move(left.rows[li]) : left.rows[li];
    std::copy(rrow.begin() + offset, rrow.begin() + offset + width,
              row.begin() + offset);
    frag->rows.push_back(std::move(row));
    if (lw + rw > 0) {
      auto lt = left.sources.begin() + li * lw;
      auto rt = right.sources.begin() + ri * rw;
      frag->sources.insert(frag->sources.end(), lt, lt + lw);
      frag->sources.insert(frag->sources.end(), rt, rt + rw);
    }
    return Status::OK();
  };

  size_t build_entries = 0;
  size_t parts = 1;
  if (pj.algo == JoinAlgo::kHashJoin) {
    // Hash join: build on the incoming relation, probe with the left side.
    // Both phases morselize. Keys are precomputed (with their hashes, so
    // partitioned build tasks can move them without re-reading); partition
    // p then owns the keys hashing to it and walks ri ascending, so every
    // bucket lists ri in ascending order — exactly the serial build. The
    // partition count changes only task granularity, never contents.
    size_t rn = right.rows.size();
    std::vector<std::optional<Row>> keys(rn);  // nullopt = NULL key
    std::vector<size_t> key_hashes(rn, 0);
    NoFragment none;
    DL_RETURN_NOT_OK(DriveMorsels(
        rn, MorselClass::kJoinBuild, &none,
        [&](size_t lo, size_t hi, NoFragment*) -> Status {
          for (size_t ri = lo; ri < hi; ++ri) {
            Row key;
            bool null_key = false;
            DL_RETURN_NOT_OK(EvalJoinKey(pj.right_key_programs,
                                         right.rows[ri], &key, &null_key));
            if (null_key) continue;
            key_hashes[ri] = RowHash()(key);
            keys[ri] = std::move(key);
          }
          return Status::OK();
        },
        [](NoFragment*, NoFragment&&) { return true; }, &run));

    if (run.morsels > 0) {
      parts = std::min<size_t>(options_.scheduler->num_threads() + 1, 16);
    }
    std::vector<std::unordered_map<Row, std::vector<size_t>, RowHash,
                                   RowKeyEq>>
        build(parts);
    auto build_part = [&](size_t p) {
      for (size_t ri = 0; ri < rn; ++ri) {
        if (!keys[ri].has_value()) continue;
        if (key_hashes[ri] % parts != p) continue;
        build[p][std::move(*keys[ri])].push_back(ri);
      }
    };
    if (parts > 1) {
      options_.scheduler->ParallelFor(parts, build_part);
    } else {
      build_part(0);
    }
    for (const auto& part : build) build_entries += part.size();

    DL_RETURN_NOT_OK(DriveMorsels(
        left.rows.size(), MorselClass::kJoinProbe, &out,
        [&](size_t lo, size_t hi, Intermediate* frag) -> Status {
          Row key;
          for (size_t li = lo; li < hi; ++li) {
            bool null_key = false;
            DL_RETURN_NOT_OK(EvalJoinKey(pj.left_key_programs, left.rows[li],
                                         &key, &null_key));
            if (null_key) continue;
            const auto& part = build[parts == 1 ? 0 : RowHash()(key) % parts];
            auto it = part.find(key);
            if (it == part.end()) continue;
            const std::vector<size_t>& matches = it->second;
            for (size_t k = 0; k < matches.size(); ++k) {
              DL_RETURN_NOT_OK(
                  emit(li, matches[k], k + 1 == matches.size(), frag));
            }
          }
          return Status::OK();
        },
        &PlanExecutor::AppendFragment, &run));
  } else {
    // Nested loop (cross product with residual filters), morselized over
    // the left side: each morsel is a contiguous li range, so concatenating
    // fragments in morsel order reproduces the serial (li, ri) order.
    DL_RETURN_NOT_OK(DriveMorsels(
        left.rows.size(), MorselClass::kNestedLoop, &out,
        [&](size_t lo, size_t hi, Intermediate* frag) -> Status {
          for (size_t li = lo; li < hi; ++li) {
            for (size_t ri = 0; ri < right.rows.size(); ++ri) {
              DL_RETURN_NOT_OK(
                  emit(li, ri, ri + 1 == right.rows.size(), frag));
            }
          }
          return Status::OK();
        },
        &PlanExecutor::AppendFragment, &run));
  }
  out.maps = std::move(left.maps);
  for (SourceMap& map : right.maps) out.maps.push_back(std::move(map));
  if (profiling_) {
    const BoundRelation& rel = bq.relations[rel_idx];
    const RelationData* data =
        rel.table_name.empty() ? nullptr : catalog_->Find(rel.table_name);
    OperatorProfile& op = RecordOp(
        JoinLabel(pj, SourceLabel(rel, data)), prof_start,
        left.rows.size() + right.rows.size(), out.rows.size(), &run);
    op.peak_hash_entries = build_entries;
    op.est_rows = pj.est_rows;
    if (parts > 1) op.partitions = parts;
    RecordLineage(&op, int64_t(out.maps.size()));
  }
  return out;
}

void PlanExecutor::RestoreInputOrder(const PhysicalMember& pm,
                                     Intermediate* joined) {
  // A FROM-order fold emits rows in lexicographic order of the tuple of
  // per-relation scan-emission positions (the hash-join build buckets and
  // nested loops both preserve ascending position order). The reordered
  // fold produced the same row set with positions tracked in scan order;
  // remapping each tuple back to FROM order and sorting reproduces the
  // baseline order exactly (position tuples are unique per row).
  size_t n = pm.scan_order.size();
  std::vector<size_t> inv(n, 0);
  for (size_t j = 0; j < n; ++j) inv[pm.scan_order[j]] = j;

  std::vector<size_t> perm(joined->rows.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    const uint32_t* ta = joined->sources.data() + a * n;
    const uint32_t* tb = joined->sources.data() + b * n;
    for (size_t k = 0; k < n; ++k) {
      uint32_t va = ta[inv[k]];
      uint32_t vb = tb[inv[k]];
      if (va != vb) return va < vb;
    }
    return false;
  });

  Permute(&joined->rows, perm);
  std::vector<uint32_t> sources(joined->sources.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    std::copy_n(joined->sources.begin() + perm[i] * n, n,
                sources.begin() + i * n);
  }
  joined->sources = std::move(sources);
}

Result<QueryResult> PlanExecutor::ProjectUngrouped(const PhysicalMember& pm,
                                                   Intermediate input) {
  const BoundQuery& bq = *pm.bq;
  double prof_start = profiling_ ? ProfNowUs() : 0;
  // Row-wise and side-effect-free, so morsels fill disjoint fragments (a
  // morsel builds only its own rows' lineage sets, from their tuples).
  QueryResult result;
  MorselRun run;
  DL_RETURN_NOT_OK(DriveMorsels(
      input.rows.size(), MorselClass::kProject, &result,
      [&](size_t lo, size_t hi, QueryResult* frag) -> Status {
        frag->rows.reserve(frag->rows.size() + (hi - lo));
        for (size_t i = lo; i < hi; ++i) {
          ProgramInput in;
          in.row = input.rows[i];
          Row out;
          DL_RETURN_NOT_OK(ProjectRow(pm, in, &out));
          frag->rows.push_back(std::move(out));
          if (options_.capture_lineage) {
            LineageSet& lineage = frag->lineage.emplace_back();
            AppendTupleLineage(input, i, nullptr, &lineage);
            NormalizeLineage(&lineage);
          }
        }
        return Status::OK();
      },
      &AppendResult, &run));
  result.schema = bq.output_schema;
  if (profiling_) {
    OperatorProfile& op = RecordOp(
        "project " + std::to_string(bq.output_columns.size()) + " columns",
        prof_start, input.rows.size(), result.rows.size(), &run);
    RecordLineage(&op, int64_t(input.maps.size()), &result.lineage);
  }
  return result;
}

Result<QueryResult> PlanExecutor::ProjectGrouped(const PhysicalMember& pm,
                                                 Intermediate input) {
  const BoundQuery& bq = *pm.bq;
  double prof_start = profiling_ ? ProfNowUs() : 0;
  const SelectStmt& stmt = *bq.stmt;

  struct GroupState {
    /// The group's first input row (`input` outlives every group).
    const Row* representative = nullptr;
    std::vector<AggregateAccumulator> accumulators;
    uint32_t index = 0;  ///< position in its accumulator's group_order
  };

  /// Hash table + first-appearance order — one per morsel when parallel,
  /// merged in morsel order so representatives, group order, and each
  /// row's group index all match the serial single-pass build.
  using GroupEntry = std::pair<const Row, GroupState>;
  struct GroupAcc {
    std::unordered_map<Row, GroupState, RowHash> groups;
    std::vector<GroupEntry*> group_order;  // deterministic output order
    /// Group index of each input row seen, in row order (capture only):
    /// lineage sets are gathered from it for the groups HAVING keeps.
    std::vector<uint32_t> row_group;
  };

  auto new_group_state = [&](const Row* representative) {
    GroupState state;
    state.representative = representative;
    state.accumulators.reserve(bq.aggregates.size());
    for (const FuncCallExpr* agg : bq.aggregates) {
      state.accumulators.emplace_back(agg);
    }
    return state;
  };

  auto accumulate_span = [&](size_t lo, size_t hi, GroupAcc* acc) -> Status {
    Row key(pm.group_by_programs.size());
    for (size_t i = lo; i < hi; ++i) {
      ProgramInput in;
      in.row = input.rows[i];
      for (size_t k = 0; k < key.size(); ++k) {
        DL_RETURN_NOT_OK(pm.group_by_programs[k].Evaluate(in, &key[k]));
      }
      auto it = acc->groups.find(key);
      if (it == acc->groups.end()) {
        it = acc->groups.emplace(key, new_group_state(&input.rows[i])).first;
        it->second.index = uint32_t(acc->group_order.size());
        acc->group_order.push_back(&*it);
      }
      GroupState& state = it->second;
      for (size_t a = 0; a < bq.aggregates.size(); ++a) {
        const FuncCallExpr* spec = bq.aggregates[a];
        if (spec->star) {
          state.accumulators[a].AddStarRow();
        } else {
          Value v;
          DL_RETURN_NOT_OK(pm.aggregate_arg_programs[a].Evaluate(in, &v));
          DL_RETURN_NOT_OK(state.accumulators[a].Add(v));
        }
      }
      if (options_.capture_lineage) acc->row_group.push_back(state.index);
    }
    return Status::OK();
  };

  // Partials merge in morsel order: a group's representative and position
  // in group_order come from its earliest morsel — the same row serial
  // processing would have picked — and each part's row group indices are
  // renumbered into the merged order. A merge an
  // accumulator cannot prove exact (float partial sums) makes DriveMorsels
  // redo the whole aggregation serially; `input` was only read, so the
  // redo sees exactly what the serial path would have.
  GroupAcc acc;
  MorselRun run;
  DL_RETURN_NOT_OK(DriveMorsels(
      input.rows.size(), MorselClass::kAggregate, &acc, accumulate_span,
      [&](GroupAcc* dst, GroupAcc&& part) {
        if (dst->groups.empty()) {
          *dst = std::move(part);
          return true;
        }
        std::vector<uint32_t> renumber(part.group_order.size());
        for (GroupEntry* entry : part.group_order) {
          GroupState& src = entry->second;
          auto [it, inserted] = dst->groups.try_emplace(entry->first);
          GroupState& state = it->second;
          if (inserted) {
            uint32_t index = uint32_t(dst->group_order.size());
            renumber[src.index] = index;
            state = std::move(src);
            state.index = index;
            dst->group_order.push_back(&*it);
            continue;
          }
          renumber[src.index] = state.index;
          for (size_t a = 0; a < state.accumulators.size(); ++a) {
            if (!state.accumulators[a].MergeFrom(src.accumulators[a])) {
              return false;
            }
          }
        }
        for (uint32_t g : part.row_group) {
          dst->row_group.push_back(renumber[g]);
        }
        return true;
      },
      &run));

  // A global aggregate (no GROUP BY) over empty input still forms one group.
  Row null_row;
  if (acc.groups.empty() && stmt.group_by.empty()) {
    null_row.resize(bq.total_slots);
    auto [it, inserted] = acc.groups.try_emplace(Row());
    it->second = new_group_state(&null_row);
    acc.group_order.push_back(&*it);
  }

  QueryResult result;
  result.schema = bq.output_schema;
  constexpr uint32_t kDropped = UINT32_MAX;
  std::vector<uint32_t> output_row(acc.group_order.size(), kDropped);
  for (GroupEntry* entry : acc.group_order) {
    GroupState& state = entry->second;
    std::vector<Value> agg_values(bq.aggregates.size());
    for (size_t a = 0; a < agg_values.size(); ++a) {
      DL_ASSIGN_OR_RETURN(agg_values[a], state.accumulators[a].Finish());
    }
    ProgramInput in;
    in.row = *state.representative;
    in.aggs = agg_values.data();
    if (stmt.having != nullptr) {
      bool keep = false;
      DL_RETURN_NOT_OK(pm.having_program.Test(in, &keep));
      if (!keep) continue;
    }
    Row out;
    DL_RETURN_NOT_OK(ProjectRow(pm, in, &out));
    output_row[state.index] = uint32_t(result.rows.size());
    result.rows.push_back(std::move(out));
  }
  if (options_.capture_lineage) {
    // A group's rows often repeat a source row (the dimension row every
    // fact row joins): `last` skips it while it repeats.
    size_t width = input.maps.size();
    std::vector<uint32_t> last(result.rows.size() * width, UINT32_MAX);
    result.lineage.resize(result.rows.size());
    for (size_t i = 0; i < acc.row_group.size(); ++i) {
      uint32_t r = output_row[acc.row_group[i]];
      if (r == kDropped) continue;
      AppendTupleLineage(input, i, last.data() + r * width,
                         &result.lineage[r]);
    }
    for (LineageSet& lineage : result.lineage) NormalizeLineage(&lineage);
  }
  if (profiling_) {
    OperatorProfile& op = RecordOp(
        "aggregate [" + std::to_string(stmt.group_by.size()) +
            " group keys, " + std::to_string(bq.aggregates.size()) +
            " aggregates]",
        prof_start, input.rows.size(), result.rows.size(), &run);
    op.peak_hash_entries = acc.groups.size();
    RecordLineage(&op, int64_t(input.maps.size()), &result.lineage);
  }
  return result;
}

Status PlanExecutor::ApplyDistinct(QueryResult* result) {
  double prof_start = profiling_ ? ProfNowUs() : 0;
  uint64_t prof_rows_in = result->rows.size();
  std::unordered_map<Row, size_t, RowHash> seen;
  std::vector<Row> rows;
  std::vector<LineageSet> lineage;
  for (size_t i = 0; i < result->rows.size(); ++i) {
    auto [it, inserted] = seen.try_emplace(result->rows[i], rows.size());
    if (inserted) {
      rows.push_back(std::move(result->rows[i]));
      if (options_.capture_lineage) {
        lineage.push_back(std::move(result->lineage[i]));
      }
    } else if (options_.capture_lineage) {
      // Lineage of a deduplicated row is the union over its duplicates.
      const LineageSet& dup = result->lineage[i];
      lineage[it->second].insert(lineage[it->second].end(), dup.begin(),
                                 dup.end());
    }
  }
  if (options_.capture_lineage) {
    for (LineageSet& l : lineage) NormalizeLineage(&l);
  }
  result->rows = std::move(rows);
  result->lineage = std::move(lineage);
  if (profiling_) {
    OperatorProfile& op = RecordOp("distinct", prof_start, prof_rows_in,
                                   result->rows.size());
    op.peak_hash_entries = seen.size();
    RecordLineage(&op, -1, &result->lineage);
  }
  return Status::OK();
}

Status PlanExecutor::ApplyOrderAndLimit(const BoundQuery& bq,
                                        QueryResult* result) {
  const SelectStmt& stmt = *bq.stmt;
  if (!stmt.order_by.empty()) {
    double prof_start = profiling_ ? ProfNowUs() : 0;
    // Resolve each ORDER BY item to an output column: by name, or by
    // 1-based position for integer literals.
    std::vector<std::pair<size_t, bool>> keys;  // (column, ascending)
    for (const OrderByItem& item : stmt.order_by) {
      if (item.expr->kind() == ExprKind::kColumnRef) {
        const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
        auto col = result->schema.FindColumn(ref.column);
        if (!col.has_value()) {
          return Status::Unsupported(
              "ORDER BY must name an output column, got " + ref.ToString());
        }
        keys.emplace_back(*col, item.ascending);
      } else if (item.expr->kind() == ExprKind::kLiteral) {
        const auto& lit = static_cast<const LiteralExpr&>(*item.expr);
        if (!lit.value.is_int64() || lit.value.AsInt64() < 1 ||
            size_t(lit.value.AsInt64()) > result->schema.NumColumns()) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
        keys.emplace_back(size_t(lit.value.AsInt64()) - 1, item.ascending);
      } else {
        return Status::Unsupported(
            "ORDER BY supports output columns and positions only");
      }
    }
    std::vector<size_t> perm(result->rows.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    // A tie (neither side orders first: 1 and 1.0 are one) falls through to
    // the next key; stable_sort keeps full ties in input order.
    std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
      for (const auto& [col, asc] : keys) {
        const Value& va = result->rows[a][col];
        const Value& vb = result->rows[b][col];
        if (va < vb) return asc;
        if (vb < va) return !asc;
      }
      return false;
    });
    Permute(&result->rows, perm);
    if (!result->lineage.empty()) Permute(&result->lineage, perm);
    if (profiling_) {
      RecordOp("sort " + std::to_string(stmt.order_by.size()) + " keys",
               prof_start, result->rows.size(), result->rows.size());
    }
  }

  if (stmt.limit.has_value() && result->rows.size() > size_t(*stmt.limit)) {
    double prof_start = profiling_ ? ProfNowUs() : 0;
    uint64_t prof_rows_in = result->rows.size();
    result->rows.resize(size_t(*stmt.limit));
    if (!result->lineage.empty()) result->lineage.resize(size_t(*stmt.limit));
    if (profiling_) {
      RecordOp("limit " + std::to_string(*stmt.limit), prof_start,
               prof_rows_in, result->rows.size());
    }
  }
  return Status::OK();
}

}  // namespace datalawyer
