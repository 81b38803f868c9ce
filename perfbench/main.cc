// Closed-loop enforcement benchmark: one client drives a DataLawyer with a
// seeded statement stream for a fixed time, each statement sent only after
// the previous one returned. Prints human-readable lines, then one JSON
// result line: the end-to-end metrics, or with --trace 1 the per-layer
// metrics. See perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/binder.h"
#include "common/strings.h"
#include "core/datalawyer.h"
#include "log/log_generator.h"
#include "measure.h"
#include "plan/optimizer.h"
#include "sql/parser.h"
#include "workload.h"

namespace datalawyer {
namespace perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

double UsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace_event file for the spans
  std::string source;     ///< commit or source digest, for the metadata
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--source") {
      args->source = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

// ---------------------------------------------------------------------------
// Spans the benchmark records around its calls into each layer. Kept in
// memory; written out as Chrome trace_event JSON when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t request;  ///< stream index of the statement that caused it
  int parent;        ///< index of the enclosing span, -1 for a root
  double start_us;
  double end_us;
};

class SpanLog {
 public:
  SpanLog() : origin_(SteadyClock::now()) {}

  int Begin(const char* name, uint64_t request, int parent) {
    spans_.push_back(Span{name, request, parent, NowUs(), 0});
    return int(spans_.size() - 1);
  }
  void End(int index) { spans_[size_t(index)].end_us = NowUs(); }

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end_us - s.start_us);
    }
    return out;
  }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"span\":%zu,\"parent\":%d}}%s\n",
                   s.name, s.start_us, s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.request), i, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double NowUs() const { return UsBetween(origin_, SteadyClock::now()); }

  SteadyClock::time_point origin_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request, int parent)
      : log_(log), index_(log->Begin(name, request, parent)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

// ---------------------------------------------------------------------------
// The system under test and one statement's observed outcome.
// ---------------------------------------------------------------------------

struct System {
  std::unique_ptr<Database> db;
  std::unique_ptr<DataLawyer> dl;
};

Result<System> BuildSystem(const WorkloadSpec& spec,
                           const DataLawyerOptions& options) {
  System sys;
  sys.db = std::make_unique<Database>();
  DL_RETURN_NOT_OK(LoadMimicData(sys.db.get(), spec.data));
  sys.dl = std::make_unique<DataLawyer>(
      sys.db.get(), UsageLog::WithStandardGenerators(),
      std::make_unique<ManualClock>(0, kClockStep), options);
  for (const auto& [name, sql] : spec.policies) {
    DL_RETURN_NOT_OK(sys.dl->AddPolicy(name, sql));
  }
  DL_RETURN_NOT_OK(sys.dl->Prepare());
  return sys;
}

struct Record {
  StmtKind kind = StmtKind::kSelect;
  bool error = false;     ///< a non-policy error
  bool rejected = false;
  bool mismatch = false;  ///< verdict, message or answer differs from expected
  bool traced = false;    ///< ran inside a traced block
  size_t window = 0;      ///< slice of the timed loop it started in
  uint64_t digest = 0;
  double latency_us = 0;
  /// last_stats() after the statement, for SELECT and probe statements only:
  /// Execute returns early for DML without resetting it, so reading it after
  /// a write would count the previous SELECT twice.
  ExecutionStats stats;
  std::string error_text;

  bool checked() const { return kind != StmtKind::kWrite; }
  bool admitted_select() const {
    return kind == StmtKind::kSelect && !rejected && !error;
  }
  bool failed() const { return error || mismatch; }
};

/// Sends one statement, timing the call from outside, and records its
/// outcome. `answer` receives the rows of an admitted SELECT.
Record RunStatement(DataLawyer* dl, const Stmt& s, std::vector<Row>* answer) {
  Record rec;
  rec.kind = s.kind;
  QueryContext ctx;
  ctx.uid = s.uid;
  Status status;
  answer->clear();
  if (s.kind == StmtKind::kProbe) {
    auto t0 = SteadyClock::now();
    status = dl->WouldAllow(s.sql, ctx);
    rec.latency_us = UsBetween(t0, SteadyClock::now());
  } else {
    auto t0 = SteadyClock::now();
    Result<QueryResult> result = dl->Execute(s.sql, ctx);
    rec.latency_us = UsBetween(t0, SteadyClock::now());
    status = result.status();
    if (result.ok()) *answer = std::move(result->rows);
  }
  rec.rejected = status.IsPolicyViolation();
  rec.error = !status.ok() && !rec.rejected;
  if (rec.error) rec.error_text = status.ToString();
  if (rec.checked()) rec.stats = dl->last_stats();
  std::vector<std::string> messages;
  if (rec.rejected) messages = rec.stats.violations;
  bool has_answer = s.kind == StmtKind::kSelect && status.ok();
  rec.digest =
      OutcomeDigest(rec.rejected, messages, has_answer ? answer : nullptr);
  rec.mismatch = rec.error || rec.rejected != s.expect_reject;
  return rec;
}

/// Persisted usage-log rows across the three standard log relations.
size_t LogRows(DataLawyer* dl) {
  size_t rows = 0;
  for (const char* rel : {"users", "schema", "provenance"}) {
    if (const Table* t = dl->usage_log()->main_table(rel)) {
      rows += t->NumRows();
    }
  }
  return rows;
}

/// Usage-log rows held around one statement: the rows persisted before it
/// plus the increment it staged (checked, then committed, compacted or
/// dropped), or the rows persisted after it, whichever is larger.
size_t LogRowsHeld(DataLawyer* dl, size_t persisted_before, const Record& rec) {
  return std::max(persisted_before + rec.stats.log_rows_staged, LogRows(dl));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

const char* CallSpanName(StmtKind kind) {
  switch (kind) {
    case StmtKind::kSelect:
      return "core.execute";
    case StmtKind::kProbe:
      return "core.would_allow";
    case StmtKind::kWrite:
      return "core.execute_write";
  }
  return "core.?";
}

// ---------------------------------------------------------------------------
// Per-layer replay of one admitted SELECT through each layer's public API,
// against the live catalog right after DataLawyer answered it.
// ---------------------------------------------------------------------------

struct LayerSamples {
  std::vector<double> rows_in_per_row_out;
  size_t replayed = 0;
  size_t errors = 0;
};

void ReplayLayers(DataLawyer* dl, const Stmt& s, uint64_t request,
                  const ExecOptions& exec_options, SpanLog* spans,
                  LayerSamples* out) {
  ScopedSpan root(spans, "bench.replay", request, -1);
  auto timed = [&](const char* name, auto&& call) {
    ScopedSpan span(spans, name, request, root.index());
    return call();
  };
  const CatalogView* catalog = dl->system_catalog();

  Result<Statement> parsed =
      timed("sql.parse", [&] { return Parser::Parse(s.sql); });
  if (!parsed.ok() || parsed->kind != StatementKind::kSelect) {
    ++out->errors;
    return;
  }
  Binder binder(catalog);
  Result<std::unique_ptr<BoundQuery>> bound =
      timed("analysis.bind", [&] { return binder.Bind(*parsed->select); });
  if (!bound.ok()) {
    ++out->errors;
    return;
  }
  Result<PhysicalPlan> plan =
      timed("plan.plan", [&] { return Planner().Plan(**bound); });
  if (!plan.ok()) {
    ++out->errors;
    return;
  }

  ExecOptions lineage_options = exec_options;
  lineage_options.capture_lineage = true;
  PlanExecutor plain(catalog, exec_options);
  PlanExecutor with_lineage(catalog, lineage_options);
  PlanExecutor profiled(catalog, exec_options);
  profiled.EnableProfiling();
  Result<QueryResult> plain_result =
      timed("exec.run", [&] { return plain.Run(*plan); });
  Result<QueryResult> lineage_result =
      timed("exec.run_lineage", [&] { return with_lineage.Run(*plan); });
  Result<QueryResult> profiled_result =
      timed("exec.run_profiled", [&] { return profiled.Run(*plan); });
  if (!plain_result.ok() || !lineage_result.ok() || !profiled_result.ok()) {
    ++out->errors;
    return;
  }
  uint64_t rows_in = 0;
  for (const OperatorProfile& op : profiled.profile()) {
    if (op.depth == 0) rows_in += op.rows_in;
  }
  const size_t rows_out = std::max<size_t>(1, profiled_result->NumRows());
  out->rows_in_per_row_out.push_back(double(rows_in) / double(rows_out));

  QueryContext ctx;
  ctx.uid = s.uid;
  GenerationInput input;
  input.query = parsed->select.get();
  input.bound = bound->get();
  input.db_catalog = catalog;
  input.context = &ctx;
  ProvenanceLogGenerator provenance;
  Result<std::vector<Row>> generated =
      timed("log.provenance_gen", [&] { return provenance.Generate(input); });
  if (!generated.ok()) {
    ++out->errors;
    return;
  }
  ++out->replayed;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
            FormatNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

constexpr size_t kWindows = 10;
/// Client time between two runs of the calibration kernel.
constexpr double kCalibrationPeriodUs = 50000;
/// The calibration kernel's typical time on the 4-core machine the
/// benchmark was tuned on; setup_s is scaled to that host speed.
constexpr double kReferenceCalibrationUs = 700;

/// Median calibration kernel time over a few back-to-back runs.
double CalibrateNow() {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(CalibrationUs());
  return Median(samples);
}

/// Empty when the run exercised the paths its workload exists for; else
/// what was missing, so that no workload silently measures another path.
std::string VacuityProblem(const WorkloadSpec& spec,
                           const std::vector<Record>& records) {
  size_t rejections = 0, probes = 0, rebuilds = 0, hits = 0;
  for (const Record& r : records) {
    rejections += r.rejected;
    probes += r.kind == StmtKind::kProbe;
    if (!r.checked()) continue;
    rebuilds += r.stats.incremental_rebuilds;
    hits += r.stats.incremental_hits;
  }
  switch (spec.mix) {
    case Mix::kInteractive:
      if (hits == 0) return "interactive: no incremental hits";
      break;
    case Mix::kAnalytic:
      if (rejections != 0) return "analytic: statements were rejected";
      break;
    case Mix::kChurn:
      if (rejections == 0) return "churn: no rejections";
      if (probes == 0) return "churn: no probes";
      if (rebuilds == 0) return "churn: no incremental rebuilds";
      break;
  }
  return "";
}

std::vector<Metric> PerLayerMetrics(const std::vector<Record>& loop,
                                    const SpanLog& spans,
                                    const LayerSamples& layers) {
  std::vector<double> log_gen, staged, flushed, wall, cpu, mark, del, ins,
      deleted, unaccounted, reject, probe, tasks, steals, queue_wait, morsels,
      traced_lat, untraced_lat;
  double cache_hits = 0, cache_misses = 0, generated = 0, skipped = 0,
         evaluated = 0, pruned = 0, inc_hits = 0, inc_fallbacks = 0,
         rebuilds = 0, index_probes = 0, index_hits = 0, range_probes = 0,
         range_hits = 0;
  for (const Record& r : loop) {
    (r.traced ? traced_lat : untraced_lat).push_back(r.latency_us);
    if (!r.checked() || r.error) continue;
    const ExecutionStats& s = r.stats;
    cache_hits += double(s.plan_cache_hits);
    cache_misses += double(s.plan_cache_misses);
    generated += double(s.logs_generated);
    skipped += double(s.logs_skipped_preemptively);
    evaluated += double(s.policies_evaluated);
    pruned += double(s.policies_pruned_early);
    inc_hits += double(s.incremental_hits);
    inc_fallbacks += double(s.incremental_fallbacks);
    rebuilds += double(s.incremental_rebuilds);
    index_probes += double(s.index_probes);
    index_hits += double(s.index_hits);
    range_probes += double(s.range_probes);
    range_hits += double(s.range_hits);
    log_gen.push_back(s.log_gen_ms * 1000.0);
    staged.push_back(double(s.log_rows_staged));
    wall.push_back(s.policy_wall_us);
    cpu.push_back(s.policy_cpu_us);
    unaccounted.push_back(r.latency_us - s.total_ms() * 1000.0);
    tasks.push_back(double(s.sched_tasks));
    steals.push_back(double(s.steals));
    morsels.push_back(double(s.morsels));
    if (r.traced) queue_wait.push_back(double(s.queue_wait_us));
    if (r.kind == StmtKind::kProbe) probe.push_back(r.latency_us);
    if (r.kind == StmtKind::kSelect && r.rejected) {
      reject.push_back(r.latency_us);
    }
    if (r.admitted_select()) {
      flushed.push_back(double(s.log_rows_flushed));
      mark.push_back(s.compact_mark_ms * 1000.0);
      del.push_back(s.compact_delete_ms * 1000.0);
      ins.push_back(s.compact_insert_ms * 1000.0);
      deleted.push_back(double(s.log_rows_deleted));
    }
  }
  double run_us = Median(spans.Durations("exec.run"));
  double lineage_us = Median(spans.Durations("exec.run_lineage"));
  return {
      {"sql.parse_us", Median(spans.Durations("sql.parse")), "us"},
      {"analysis.bind_us", Median(spans.Durations("analysis.bind")), "us"},
      {"plan.plan_us", Median(spans.Durations("plan.plan")), "us"},
      {"plan.cache_hit_ratio", Ratio(cache_hits, cache_hits + cache_misses),
       "ratio"},
      {"plan.cache_lookups", cache_hits + cache_misses, "count"},
      {"exec.query_us", run_us, "us"},
      {"exec.rows_in_per_row_out", Median(layers.rows_in_per_row_out),
       "ratio"},
      {"exec.lineage_overhead_ratio", Ratio(lineage_us, run_us), "ratio"},
      {"exec.morsels", Median(morsels), "count"},
      {"log.gen_us", Median(log_gen), "us"},
      {"log.provenance_gen_us", Median(spans.Durations("log.provenance_gen")),
       "us"},
      {"log.rows_staged", Median(staged), "count"},
      {"log.rows_flushed", Median(flushed), "count"},
      {"log.preemptive_skip_ratio", Ratio(skipped, generated + skipped),
       "ratio"},
      {"log.generation_decisions", generated + skipped, "count"},
      {"policy.eval_wall_us", Median(wall), "us"},
      {"policy.eval_cpu_us", Median(cpu), "us"},
      {"policy.prune_ratio", Ratio(pruned, evaluated), "ratio"},
      {"policy.statements_evaluated", evaluated, "count"},
      {"policy.incremental_hit_ratio",
       Ratio(inc_hits, inc_hits + inc_fallbacks), "ratio"},
      {"policy.incremental_attempts", inc_hits + inc_fallbacks, "count"},
      {"policy.incremental_rebuilds", rebuilds, "count"},
      {"policy.compact_mark_us", Median(mark), "us"},
      {"policy.compact_delete_us", Median(del), "us"},
      {"policy.compact_insert_us", Median(ins), "us"},
      {"policy.rows_deleted", Median(deleted), "count"},
      {"storage.index_hit_ratio", Ratio(index_hits, index_probes), "ratio"},
      {"storage.index_probes", index_probes, "count"},
      {"storage.range_hit_ratio", Ratio(range_hits, range_probes), "ratio"},
      {"storage.range_probes", range_probes, "count"},
      {"core.unaccounted_us", Median(unaccounted), "us"},
      {"core.reject_us", Median(reject), "us"},
      {"core.rejects", double(reject.size()), "count"},
      {"core.probe_us", Median(probe), "us"},
      {"core.probes", double(probe.size()), "count"},
      {"common.sched_tasks", Median(tasks), "count"},
      {"common.steals", Median(steals), "count"},
      {"common.queue_wait_us", Median(queue_wait), "us"},
      {"trace.overhead_ratio", Ratio(Median(traced_lat), Median(untraced_lat)),
       "ratio"},
      {"trace.replayed_statements", double(layers.replayed), "count"},
  };
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  DataLawyerOptions options = spec->options;
  Status clamped = options.ClampThreadCounts();
  if (!clamped.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", clamped.ToString().c_str());
  }

  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"hardware_threads\": %u, \"build_type\": \"%s\", "
      "\"source\": \"%s\", \"patients\": %lld, \"chartevents\": %lld, "
      "\"orders\": %lld, \"policy_threads\": %d, \"exec_threads\": %d, "
      "\"morsel_size\": %zu, \"clock_step\": %lld, \"warmup_statements\": "
      "%d, \"reference_statements\": %d, \"params\": \"%s\"}\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed),
      FormatNumber(args.seconds).c_str(), int(args.trace),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      JsonEscape(args.source).c_str(),
      static_cast<long long>(spec->data.num_patients),
      static_cast<long long>(spec->data.num_chartevents),
      static_cast<long long>(spec->data.num_orders), options.policy_threads,
      options.exec_threads, options.morsel_size,
      static_cast<long long>(kClockStep), spec->warmup_statements,
      spec->reference_statements, JsonEscape(spec->params).c_str());

  // ---- set-up: load, register, Prepare, warm up; repeated, and the last
  // system is the one measured ----
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s, setup_wall_s;
  System sys;
  std::unique_ptr<StatementStream> stream;
  std::vector<Record> records;  // warm-up then timed loop, in stream order
  std::vector<Row> answer;
  size_t log_rows_peak = 0;
  auto setup_start = SteadyClock::now();
  for (int k = 0; k < setups; ++k) {
    sys = System{};  // release the previous set-up before building the next
    records.clear();
    log_rows_peak = 0;
    const double cal_before_us = CalibrateNow();
    auto t0 = SteadyClock::now();
    Result<System> built = BuildSystem(*spec, options);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    sys = std::move(*built);
    stream = std::make_unique<StatementStream>(*spec, args.seed);
    for (int i = 0; i < spec->warmup_statements; ++i) {
      const size_t persisted = LogRows(sys.dl.get());
      records.push_back(RunStatement(sys.dl.get(), stream->Next(), &answer));
      log_rows_peak = std::max(
          log_rows_peak, LogRowsHeld(sys.dl.get(), persisted, records.back()));
    }
    const double wall_s = UsBetween(t0, SteadyClock::now()) / 1e6;
    // Scaled to the reference host speed by the kernel timed around the
    // set-up, like the calibrated latencies below.
    const double cal_us = (cal_before_us + CalibrateNow()) / 2;
    setup_wall_s.push_back(wall_s);
    setup_s.push_back(wall_s * kReferenceCalibrationUs / cal_us);
  }
  const size_t warmup = records.size();

  // Morsel-parallel workloads get the same thread count for the statements
  // the benchmark runs directly (layer replays, the overhead baseline).
  std::unique_ptr<TaskScheduler> direct_scheduler;
  ExecOptions direct_options;
  if (options.exec_threads > 0) {
    direct_scheduler =
        std::make_unique<TaskScheduler>(size_t(options.exec_threads));
    direct_options.scheduler = direct_scheduler.get();
    direct_options.morsel_size = options.morsel_size;
  }
  // DataLawyer exposes its scheduler read-only; the traced run switches its
  // queue-latency clock on for traced blocks only, through the runtime
  // switch the scheduler provides for that purpose.
  TaskScheduler* dl_scheduler =
      const_cast<TaskScheduler*>(sys.dl->scheduler());

  // ---- timed closed loop ----
  // The loop runs for `seconds` of client time: the benchmark's own work
  // between statements (calibration, the direct baseline runs and, with
  // --trace 1, the layer replays) is excluded from it. With --trace 1,
  // blocks of kBlock statements alternate untraced and traced, so both see
  // the same state.
  constexpr size_t kBlock = 32;
  SpanLog spans;
  LayerSamples layers;
  const double budget_us = args.seconds * 1e6;
  const double window_us = budget_us / double(kWindows);
  double client_us = 0, side_us = 0;
  std::vector<double> enforced_us, direct_us;  // per admitted SELECT
  size_t answer_mismatches = 0;
  // Calibration kernel times, by window of client time.
  std::vector<std::vector<double>> calibration(kWindows);
  double next_calibration_us = 0;
  auto loop_start = SteadyClock::now();
  for (size_t i = 0;; ++i) {
    client_us = UsBetween(loop_start, SteadyClock::now()) - side_us;
    if (client_us >= budget_us) break;
    const size_t window = std::min(kWindows - 1, size_t(client_us / window_us));
    if (client_us >= next_calibration_us) {
      auto side_start = SteadyClock::now();
      calibration[window].push_back(CalibrationUs());
      next_calibration_us += kCalibrationPeriodUs;
      side_us += UsBetween(side_start, SteadyClock::now());
    }
    Stmt st = stream->Next();
    const bool traced = args.trace && (i / kBlock) % 2 == 1;
    if (args.trace && i % kBlock == 0 && dl_scheduler != nullptr) {
      dl_scheduler->set_telemetry_enabled(traced);
    }
    const uint64_t request = records.size();
    Record rec;
    const size_t persisted = LogRows(sys.dl.get());
    if (traced) {
      ScopedSpan call(&spans, CallSpanName(st.kind), request, -1);
      rec = RunStatement(sys.dl.get(), st, &answer);
    } else {
      rec = RunStatement(sys.dl.get(), st, &answer);
    }
    rec.traced = traced;
    rec.window = window;
    log_rows_peak =
        std::max(log_rows_peak, LogRowsHeld(sys.dl.get(), persisted, rec));
    if (rec.admitted_select()) {
      // Overhead baseline: the same SELECT directly through the engine on
      // the same database, right after DataLawyer answered it, so both
      // timings see the same machine conditions. The first direct run
      // checks the answer and refills the caches the enforcement work
      // evicted; the second is timed, as the query runs without enforcement.
      auto side_start = SteadyClock::now();
      Result<QueryResult> direct =
          sys.dl->engine()->ExecuteSql(st.sql, direct_options);
      auto timed_start = SteadyClock::now();
      Result<QueryResult> timed =
          sys.dl->engine()->ExecuteSql(st.sql, direct_options);
      direct_us.push_back(UsBetween(timed_start, SteadyClock::now()));
      enforced_us.push_back(rec.latency_us);
      if (!direct.ok() || !timed.ok() ||
          OutcomeDigest(false, {}, &direct->rows) != rec.digest) {
        rec.mismatch = true;
        ++answer_mismatches;
      }
      if (traced) {
        ReplayLayers(sys.dl.get(), st, request, direct_options, &spans,
                     &layers);
      }
      side_us += UsBetween(side_start, SteadyClock::now());
    }
    records.push_back(std::move(rec));
  }
  const size_t loop_count = records.size() - warmup;
  const double rss_mb = PeakRssMb();
  sys = System{};
  auto reference_start = SteadyClock::now();

  // ---- NoOpt reference over the stream prefix ----
  const size_t ref_n =
      std::min(records.size(), size_t(spec->reference_statements));
  size_t ref_mismatches = 0;
  bool reference_ok = true;
  {
    Result<System> ref = BuildSystem(*spec, DataLawyerOptions::NoOpt());
    if (!ref.ok()) {
      std::fprintf(stderr, "perfbench: reference set-up failed: %s\n",
                   ref.status().ToString().c_str());
      reference_ok = false;
    } else {
      StatementStream ref_stream(*spec, args.seed);
      std::vector<uint64_t> run_digests, ref_digests;
      for (size_t i = 0; i < ref_n; ++i) {
        Record r = RunStatement(ref->dl.get(), ref_stream.Next(), &answer);
        if (r.failed()) reference_ok = false;
        run_digests.push_back(records[i].digest);
        ref_digests.push_back(r.digest);
      }
      for (size_t i : DigestMismatches(run_digests, ref_digests)) {
        records[i].mismatch = true;
        ++ref_mismatches;
      }
    }
  }

  const double reference_s =
      UsBetween(reference_start, SteadyClock::now()) / 1e6;
  std::printf("phases setup_s=%s loop_s=%s client_s=%s reference_s=%s\n",
              FormatNumber(UsBetween(setup_start, loop_start) / 1e6).c_str(),
              FormatNumber(UsBetween(loop_start, reference_start) / 1e6)
                  .c_str(),
              FormatNumber(client_us / 1e6).c_str(),
              FormatNumber(reference_s).c_str());
  const double enforced_p50 = Median(enforced_us);
  const double direct_p50 = Median(direct_us);
  std::printf(
      "overhead admitted_selects=%zu enforced_p50_us=%s direct_p50_us=%s\n",
      enforced_us.size(), FormatNumber(enforced_p50).c_str(),
      FormatNumber(direct_p50).c_str());

  size_t failed = 0;
  for (const Record& r : records) {
    if (!r.failed()) continue;
    if (failed < 5) {
      std::fprintf(stderr, "perfbench: statement failed (%s): %s\n",
                   StmtKindName(r.kind),
                   r.error ? r.error_text.c_str() : "outcome mismatch");
    }
    ++failed;
  }
  std::string vacuity = VacuityProblem(*spec, records);
  if (!vacuity.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", vacuity.c_str());
  }
  const bool correct = failed == 0 && reference_ok && vacuity.empty() &&
                       layers.errors == 0 && loop_count > 0;
  std::printf(
      "check statements=%zu failed=%zu error_rate=%s answer_mismatches=%zu "
      "reference_compared=%zu reference_mismatches=%zu\n",
      records.size(), failed,
      FormatNumber(Ratio(double(failed), double(records.size()))).c_str(),
      answer_mismatches, ref_n, ref_mismatches);

  // Host speed varies by tens of percent within and between runs on a
  // shared machine. Each latency is therefore also expressed in units of
  // the calibration kernel's median time in its window ("cal"): both slow
  // down together, so the ratio holds still where the microseconds do not.
  std::vector<double> all_calibration;
  for (const std::vector<double>& c : calibration) {
    all_calibration.insert(all_calibration.end(), c.begin(), c.end());
  }
  std::vector<double> window_cal_us(kWindows);
  for (size_t w = 0; w < kWindows; ++w) {
    window_cal_us[w] =
        Median(calibration[w].empty() ? all_calibration : calibration[w]);
  }
  std::vector<double> latency_us, latency_cal;
  std::vector<std::vector<double>> window_latency_us(kWindows);
  double completed_cal = 0;  // statements x the kernel time of their window
  for (size_t i = warmup; i < records.size(); ++i) {
    const double cal_us = window_cal_us[records[i].window];
    latency_us.push_back(records[i].latency_us);
    latency_cal.push_back(Ratio(records[i].latency_us, cal_us));
    window_latency_us[records[i].window].push_back(records[i].latency_us);
    completed_cal += cal_us;
  }
  const double p95_cal = ExactPercentile(latency_cal, 0.95);
  const double p95_us = ExactPercentile(latency_us, 0.95);
  std::printf("latency samples=%zu beyond_p95=%zu calibration_us=%s\n",
              latency_cal.size(), CountAbove(latency_cal, p95_cal),
              FormatNumber(Median(all_calibration)).c_str());
  std::printf("windows");
  for (size_t w = 0; w < kWindows; ++w) {
    std::printf(" %zu/%.1f/%.1f", window_latency_us[w].size(),
                Median(window_latency_us[w]), window_cal_us[w]);
  }
  std::printf("\n");
  // The wall-clock metrics, printed but not in BENCHMARK.json: on a shared
  // host their run-to-run spread exceeds any usable bound.
  std::printf("wallclock throughput_qps=%s 1/s latency_p50_us=%s us "
              "latency_p95_us=%s us setup_s=%s s\n",
              FormatNumber(Ratio(double(loop_count), client_us / 1e6)).c_str(),
              FormatNumber(Median(latency_us)).c_str(),
              FormatNumber(p95_us).c_str(),
              FormatNumber(Median(setup_wall_s)).c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_cal", Ratio(completed_cal, client_us), "1/cal"},
        {"latency_p50_cal", Median(latency_cal), "cal"},
        {"latency_p95_cal", p95_cal, "cal"},
        {"overhead_ratio", Ratio(enforced_p50, direct_p50), "ratio"},
        {"log_rows_peak", double(log_rows_peak), "rows"},
        {"rss_peak_mb", rss_mb, "MB"},
    };
  } else {
    std::vector<Record> loop(records.begin() + long(warmup), records.end());
    metrics = PerLayerMetrics(loop, spans, layers);
    if (!args.trace_out.empty() && !spans.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  PrintResult(correct, records.size(), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace datalawyer

int main(int argc, char** argv) {
  datalawyer::perfbench::Args args;
  if (!datalawyer::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE] [--source ID]\n");
    return 2;
  }
  return datalawyer::perfbench::Run(args);
}
