// Property: the worker-pool evaluation path is invisible in every
// observable output. For policy_threads in {0, 1, 4, 8} and every
// evaluation strategy, a scripted workload must produce identical
// admit/reject decisions, identical rejection messages, an identical
// last_violations() sequence (order included), byte-identical
// usage-log contents after Flush(), and identical admitted answers, each
// free of lineage and equal to a direct Engine run.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "admitted_answer.h"
#include "common/task_scheduler.h"
#include "common/trace.h"
#include "core/datalawyer.h"
#include "exec/executor.h"
#include "exec/plan_executor.h"
#include "sql/parser.h"
#include "storage/catalog_view.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

struct Step {
  int64_t uid;
  std::string sql;
};

std::vector<Step> Scenario(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Step> steps;
  auto queries = PaperQueries::All();
  for (int i = 0; i < 20; ++i) {
    steps.push_back(
        Step{int64_t(rng() % 3), queries[rng() % queries.size()].second});
  }
  // A join that trips P2 for uid 1.
  steps.push_back(Step{1,
                       "SELECT o.medication, p.sex FROM poe_order o, "
                       "d_patients p WHERE o.subject_id = p.subject_id"});
  steps.push_back(Step{0, "SELECT * FROM d_patients"});
  return steps;
}

/// Everything a run exposes, flattened to one comparable string.
struct Trace {
  std::vector<std::string> decisions;  // one entry per step
  std::string log_dump;                // all persisted log rows after Flush
  std::string decision_dump;           // decision store, timing-free fields
  std::vector<AdmittedAnswer> answers;  // one per admitted step
  uint64_t incremental_hits = 0;       // verdicts served from state
  uint64_t morsels = 0;                // plan morsels dispatched
};

/// Deterministic projection of the decision store: everything except wall
/// times, which legitimately vary run to run. Witness rows are part of the
/// projection — their order and content must not depend on thread count.
std::string DumpDecisions(const DecisionStore& store) {
  std::string out;
  for (const DecisionRecord& d : store.records()) {
    out += std::to_string(d.id) + "|" + std::to_string(d.ts) + "|" +
           std::to_string(d.uid) + "|" + d.verdict() + "|" +
           (d.probe ? "p" : "-") + "|" + d.policy;
    for (const std::string& m : d.messages) out += ";" + m;
    for (const PolicyOutcome& o : d.outcomes) {
      out += "/" + o.policy + "=" + o.outcome + ":" +
             std::to_string(o.evaluations) + ":" + std::to_string(o.prunes);
    }
    for (const DecisionWitness& w : d.witnesses) {
      out += "/w:" + w.relation + ":" + std::to_string(w.row_id) + ":" +
             (w.from_increment ? "i" : "m") + ":" + std::to_string(w.ts);
      for (const std::string& v : w.values) out += "," + v;
    }
    out += "/trunc=" + std::to_string(d.witnesses_truncated) + "\n";
  }
  return out;
}

Trace RunScenario(DataLawyerOptions options, const std::vector<Step>& steps) {
  // Each run gets its own copy of the data so log state cannot leak.
  Database db;
  EXPECT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());

  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), options);
  for (const auto& [name, sql] : PaperPolicies::All()) {
    EXPECT_TRUE(dl.AddPolicy(name, sql).ok());
  }
  EXPECT_TRUE(
      dl.AddPolicy("rate", PaperPolicies::RateLimitForUser(1, 500, 10)).ok());
  // A guarded policy (guard == policy: containment trivially holds)
  // exercises the two-wave guard/precise parallel phases.
  EXPECT_TRUE(dl.AddPolicyWithGuard("p3guarded", PaperPolicies::P3(2, 40),
                                    PaperPolicies::P3(2, 40))
                  .ok());

  Trace trace;
  for (const Step& step : steps) {
    QueryContext ctx;
    ctx.uid = step.uid;
    auto result = dl.Execute(step.sql, ctx);
    std::string decision = result.ok() ? "admit" : result.status().ToString();
    if (result.ok()) {
      trace.answers.push_back(CheckAdmittedAnswer(&db, step.sql, *result));
    }
    for (const ViolationReport& report : dl.last_violations()) {
      decision += "|" + report.policy_name;
      for (const std::string& m : report.messages) decision += ";" + m;
    }
    trace.decisions.push_back(std::move(decision));
    trace.incremental_hits += dl.last_stats().incremental_hits;
    trace.morsels += dl.last_stats().morsels;
  }

  trace.decision_dump = DumpDecisions(dl.decision_store());

  EXPECT_TRUE(dl.Flush().ok());
  for (const std::string& name : dl.usage_log()->RelationNamesInOrder()) {
    const Table* main = dl.usage_log()->main_table(name);
    trace.log_dump += name + ":\n";
    for (size_t i = 0; i < main->NumRows(); ++i) {
      for (const Value& v : main->RowAt(i)) trace.log_dump += v.ToString() + ",";
      trace.log_dump += "\n";
    }
  }
  return trace;
}

TEST(ParallelDeterminismTest, ThreadCountIsInvisible) {
  std::vector<Step> steps = Scenario(11);

  for (EvalStrategy strategy : {EvalStrategy::kInterleaved,
                                EvalStrategy::kSerial, EvalStrategy::kUnion}) {
    DataLawyerOptions options = DataLawyerOptions::AllOptimizations();
    options.strategy = strategy;
    options.enable_unification = false;  // several independent statements
    options.policy_threads = 0;
    Trace serial = RunScenario(options, steps);

    // The scenario must exercise both verdicts or the property is vacuous.
    size_t rejects = 0;
    for (const std::string& d : serial.decisions) {
      if (d.rfind("admit", 0) != 0) ++rejects;
    }
    EXPECT_GT(rejects, 0u);
    EXPECT_LT(rejects, serial.decisions.size());

    for (int threads : {1, 4, 8}) {
      options.policy_threads = threads;
      Trace parallel = RunScenario(options, steps);
      ASSERT_EQ(parallel.decisions.size(), serial.decisions.size());
      for (size_t i = 0; i < serial.decisions.size(); ++i) {
        EXPECT_EQ(parallel.decisions[i], serial.decisions[i])
            << "strategy " << int(strategy) << " threads " << threads
            << " step " << i;
      }
      EXPECT_EQ(parallel.log_dump, serial.log_dump)
          << "strategy " << int(strategy) << " threads " << threads;
      EXPECT_EQ(parallel.answers, serial.answers)
          << "strategy " << int(strategy) << " threads " << threads;
      // Decision records (witness rows included) are assembled in serial
      // sections, so they too must be invisible to the thread count.
      EXPECT_EQ(parallel.decision_dump, serial.decision_dump)
          << "strategy " << int(strategy) << " threads " << threads;
    }
  }
}

// Incremental evaluation maintains its state in the serial head and serves
// verdicts from const reads in the fan-out, so it too must be invisible:
// the same scenario with incremental on must match every thread count, and
// must match the incremental-off run byte-for-byte (the decision-dump
// projection excludes timings and the per-policy "incremental" tag, which
// are the only fields allowed to differ).
TEST(ParallelDeterminismTest, IncrementalStateIsThreadInvisible) {
  std::vector<Step> steps = Scenario(17);

  DataLawyerOptions options = DataLawyerOptions::AllOptimizations();
  options.strategy = EvalStrategy::kSerial;
  options.enable_unification = false;
  // Compaction's steady-state deletions keep invalidating incremental
  // state; pin it off so the fast path demonstrably serves verdicts.
  options.enable_log_compaction = false;
  options.enable_preemptive_compaction = false;
  options.enable_incremental_eval = true;
  options.policy_threads = 0;
  Trace serial = RunScenario(options, steps);
  EXPECT_GT(serial.incremental_hits, 0u);

  for (int threads : {1, 4, 8}) {
    options.policy_threads = threads;
    Trace parallel = RunScenario(options, steps);
    EXPECT_EQ(parallel.decisions, serial.decisions) << "threads " << threads;
    EXPECT_EQ(parallel.log_dump, serial.log_dump) << "threads " << threads;
    EXPECT_EQ(parallel.answers, serial.answers) << "threads " << threads;
    EXPECT_EQ(parallel.decision_dump, serial.decision_dump)
        << "threads " << threads;
    EXPECT_EQ(parallel.incremental_hits, serial.incremental_hits)
        << "threads " << threads;
  }

  options.policy_threads = 0;
  options.enable_incremental_eval = false;
  Trace full = RunScenario(options, steps);
  EXPECT_EQ(full.incremental_hits, 0u);
  EXPECT_EQ(full.decisions, serial.decisions);
  EXPECT_EQ(full.log_dump, serial.log_dump);
  EXPECT_EQ(full.answers, serial.answers);
  EXPECT_EQ(full.decision_dump, serial.decision_dump);
}

// Morsel-driven plan execution must be invisible too: for every
// exec_threads x morsel_size combination, decisions, messages, persisted
// log bytes, and the decision-store projection (witness rows included)
// must match the serial run. Incremental evaluation is pinned off so
// every policy verdict actually runs its plan (otherwise most statements
// would be answered from state and the property would be near-vacuous).
TEST(ParallelDeterminismTest, MorselExecutionIsInvisible) {
  std::vector<Step> steps = Scenario(29);

  DataLawyerOptions base = DataLawyerOptions::AllOptimizations();
  base.strategy = EvalStrategy::kSerial;
  base.enable_unification = false;
  base.enable_incremental_eval = false;
  base.policy_threads = 0;
  base.exec_threads = 0;
  Trace serial = RunScenario(base, steps);
  EXPECT_EQ(serial.morsels, 0u);  // no scheduler, no dispatch

  for (int threads : {1, 4, 8}) {
    for (size_t morsel_size : {size_t(1), size_t(64), size_t(1024)}) {
      DataLawyerOptions options = base;
      options.exec_threads = threads;
      options.morsel_size = morsel_size;
      Trace morsel = RunScenario(options, steps);
      EXPECT_EQ(morsel.decisions, serial.decisions)
          << "exec_threads " << threads << " morsel_size " << morsel_size;
      EXPECT_EQ(morsel.log_dump, serial.log_dump)
          << "exec_threads " << threads << " morsel_size " << morsel_size;
      EXPECT_EQ(morsel.answers, serial.answers)
          << "exec_threads " << threads << " morsel_size " << morsel_size;
      EXPECT_EQ(morsel.decision_dump, serial.decision_dump)
          << "exec_threads " << threads << " morsel_size " << morsel_size;
      // Single-row morsels force even the tiny workload tables to split,
      // so the path demonstrably ran.
      if (morsel_size == 1) {
        EXPECT_GT(morsel.morsels, 0u) << "exec_threads " << threads;
      }
    }
  }

  // Policy fan-out and morsel execution composed: policy tasks split
  // their own plans into morsels on the same scheduler.
  DataLawyerOptions both = base;
  both.policy_threads = 4;
  both.exec_threads = 4;
  both.morsel_size = 1;
  Trace composed = RunScenario(both, steps);
  EXPECT_EQ(composed.decisions, serial.decisions);
  EXPECT_EQ(composed.log_dump, serial.log_dump);
  EXPECT_EQ(composed.answers, serial.answers);
  EXPECT_EQ(composed.decision_dump, serial.decision_dump);
}

// Adaptive morsel sizing changes how fragments are split, never what they
// compute: suggestions update only at the serial head (between queries)
// and every fragment merges in deterministic morsel order, so the full
// observable trace must be byte-identical with the feedback loop on, off,
// and against the serial run — even as the suggested sizes drift across
// the workload.
TEST(ParallelDeterminismTest, AdaptiveMorselSizingIsInvisible) {
  std::vector<Step> steps = Scenario(37);

  DataLawyerOptions base = DataLawyerOptions::AllOptimizations();
  base.strategy = EvalStrategy::kSerial;
  base.enable_unification = false;
  base.enable_incremental_eval = false;
  base.policy_threads = 0;
  base.exec_threads = 0;
  Trace serial = RunScenario(base, steps);

  for (int threads : {1, 4}) {
    for (size_t morsel_size : {size_t(1), size_t(1024)}) {
      for (bool adaptive : {false, true}) {
        DataLawyerOptions options = base;
        options.exec_threads = threads;
        options.morsel_size = morsel_size;
        options.adaptive_morsel_size = adaptive;
        Trace run = RunScenario(options, steps);
        EXPECT_EQ(run.decisions, serial.decisions)
            << "threads " << threads << " morsel_size " << morsel_size
            << " adaptive " << adaptive;
        EXPECT_EQ(run.log_dump, serial.log_dump)
            << "threads " << threads << " morsel_size " << morsel_size
            << " adaptive " << adaptive;
        EXPECT_EQ(run.answers, serial.answers)
            << "threads " << threads << " morsel_size " << morsel_size
            << " adaptive " << adaptive;
        EXPECT_EQ(run.decision_dump, serial.decision_dump)
            << "threads " << threads << " morsel_size " << morsel_size
            << " adaptive " << adaptive;
      }
    }
  }
}

// Non-vacuity for the test above: with adaptive sizing on, the feedback
// loop demonstrably engages — single-row morsels force even the tiny
// workload tables to split and feed timings, and the serial-head Roll()
// publishes a clamped suggestion for the scan class.
TEST(ParallelDeterminismTest, AdaptiveFeedbackPublishesSuggestions) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  DataLawyerOptions options = DataLawyerOptions::AllOptimizations();
  options.exec_threads = 1;
  options.morsel_size = 1;  // split everything: feedback on every fragment
  options.adaptive_morsel_size = true;
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), options);
  for (const auto& [name, sql] : PaperPolicies::All()) {
    ASSERT_TRUE(dl.AddPolicy(name, sql).ok());
  }
  QueryContext ctx;
  ctx.uid = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dl.Execute("SELECT * FROM d_patients", ctx).ok());
  }
  EXPECT_TRUE(dl.adaptive_morsel_enabled());
  size_t suggested = dl.morsel_feedback().SuggestedSize(MorselClass::kScan);
  EXPECT_GE(suggested, MorselFeedback::kMinSize);
  EXPECT_LE(suggested, MorselFeedback::kMaxSize);
  // The summary renders the observed class.
  EXPECT_NE(dl.morsel_feedback().Summary().find("scan"), std::string::npos);
}

// A task already running on a worker can itself call ParallelFor — the
// nested loop's helpers go onto the worker's own deque (stolen by idle
// peers) and the claim-counter design means whoever calls ParallelFor
// participates, so the nesting can never deadlock even with one worker.
TEST(ParallelDeterminismTest, NestedParallelForInsideTask) {
  TaskScheduler scheduler(2);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  std::vector<std::vector<int>> cells(kOuter, std::vector<int>(kInner, 0));
  std::vector<std::future<void>> tasks;
  for (size_t o = 0; o < kOuter; ++o) {
    tasks.push_back(scheduler.Submit([&scheduler, &cells, o] {
      scheduler.ParallelFor(
          kInner, [&cells, o](size_t i) { cells[o][i] = int(o * kInner + i); });
    }));
  }
  for (std::future<void>& t : tasks) t.get();
  for (size_t o = 0; o < kOuter; ++o) {
    for (size_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(cells[o][i], int(o * kInner + i));
    }
  }
  EXPECT_GE(scheduler.tasks_executed(0) + scheduler.tasks_executed(1),
            kOuter);  // the outer tasks all ran on workers
}

// A zero-thread scheduler is a valid serial executor: Submit runs inline,
// ParallelFor degrades to a plain loop, and an executor handed such a
// scheduler keeps every operator serial (DriveMorsels runs spans inline).
TEST(ParallelDeterminismTest, ZeroThreadSchedulerRunsInline) {
  TaskScheduler scheduler(0);
  EXPECT_EQ(scheduler.num_threads(), 0u);
  std::future<int> f = scheduler.Submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
  std::vector<int> marks(100, 0);
  scheduler.ParallelFor(marks.size(), [&](size_t i) { marks[i] = 1; });
  for (int m : marks) EXPECT_EQ(m, 1);
  EXPECT_EQ(scheduler.steals(), 0u);
}

TEST(ParallelDeterminismTest, ParallelAndAsyncCompactionAgree) {
  std::vector<Step> steps = Scenario(23);

  DataLawyerOptions options = DataLawyerOptions::AllOptimizations();
  options.strategy = EvalStrategy::kSerial;
  options.enable_unification = false;
  Trace serial = RunScenario(options, steps);

  options.policy_threads = 4;
  options.async_compaction = true;  // compaction shares the same pool
  Trace parallel = RunScenario(options, steps);

  EXPECT_EQ(parallel.decisions, serial.decisions);
  EXPECT_EQ(parallel.log_dump, serial.log_dump);
  EXPECT_EQ(parallel.answers, serial.answers);
  EXPECT_EQ(parallel.decision_dump, serial.decision_dump);
}

TEST(ParallelDeterminismTest, WallCpuSplitIsReported) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  DataLawyerOptions options;
  options.strategy = EvalStrategy::kSerial;
  options.enable_unification = false;
  options.policy_threads = 4;
  options.per_call_overhead_us = 500;
  options.per_call_overhead_sleep = true;
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(dl.AddPolicy("rate" + std::to_string(i),
                             PaperPolicies::RateLimitForUser(i + 10))
                    .ok());
  }
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl.Execute(PaperQueries::W1(), ctx).ok());
  const ExecutionStats& stats = dl.last_stats();
  EXPECT_GT(stats.policy_wall_us, 0.0);
  // 4 statements sleeping 500us each: at least 2ms of aggregate CPU...
  EXPECT_GE(stats.policy_cpu_us, 2000.0);
  // ...overlapped into clearly less wall time than the serial sum.
  EXPECT_LT(stats.policy_wall_us, stats.policy_cpu_us);
}

// A violation registered before a policy that fails at run time wins at
// every thread count: statuses merge in registration order like
// violations do, so the fan-out never surfaces a later policy's error
// ahead of an earlier policy's violation.
TEST(ParallelDeterminismTest, RuntimeErrorAfterViolationIsThreadInvisible) {
  for (EvalStrategy strategy :
       {EvalStrategy::kInterleaved, EvalStrategy::kSerial}) {
    for (int threads : {0, 1, 4}) {
      SCOPED_TRACE("strategy " + std::to_string(int(strategy)) + " threads " +
                   std::to_string(threads));
      Database db;
      ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
      DataLawyerOptions options;
      options.strategy = strategy;
      options.policy_threads = threads;
      DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                    std::make_unique<ManualClock>(0, 10), options);
      const char* always = "SELECT DISTINCT 'always violated' FROM users u";
      const char* divzero = "SELECT DISTINCT 'never' FROM users u "
                            "WHERE 1 / (u.uid - u.uid) = 7";
      ASSERT_TRUE(dl.AddPolicy("always", always).ok());
      ASSERT_TRUE(dl.AddPolicy("divzero", divzero).ok());
      QueryContext ctx;
      ctx.uid = 1;
      Result<QueryResult> result = dl.Execute("SELECT * FROM d_patients", ctx);
      EXPECT_EQ(result.status().ToString(), "PolicyViolation: always violated");
      ASSERT_EQ(dl.last_violations().size(), 1u);
      EXPECT_EQ(dl.last_violations()[0].policy_name, "always");
      EXPECT_EQ(dl.last_violations()[0].messages,
                std::vector<std::string>{"always violated"});
    }
  }
}

// The inline wave (policy_threads = 0) runs only what the merge records:
// it stops at the first decisive slot, so on a rejection every policy
// statement span belongs to an evaluation counted in policies_evaluated.
TEST(ParallelDeterminismTest, InlineWaveStopsAtTheDecisiveSlot) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  DataLawyerOptions options;
  options.policy_threads = 0;
  options.enable_tracing = true;
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), options);
  for (const auto& [name, sql] : PaperPolicies::All()) {
    ASSERT_TRUE(dl.AddPolicy(name, sql).ok());
  }
  QueryContext ctx;
  ctx.uid = 1;
  Tracer::Global().Clear();
  // Scenario()'s P2-violating join.
  const char* join =
      "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
      "WHERE o.subject_id = p.subject_id";
  Result<QueryResult> result = dl.Execute(join, ctx);
  std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  Tracer::Global().set_enabled(false);
  Tracer::Global().Clear();
  ASSERT_TRUE(result.status().IsPolicyViolation())
      << result.status().ToString();

  size_t spans = 0;
  for (const TraceEvent& e : events) {
    for (const char* prefix :
         {"policy.eval:", "policy.partial:", "policy.guard:"}) {
      if (e.name.rfind(prefix, 0) == 0) ++spans;
    }
  }
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(spans, dl.last_stats().policies_evaluated);
}

/// t(k, d, e) with k = 0..n-1, d = e = 1, except d = 0 at row `div_zero`
/// and e = 0 at row `mod_zero`; u(k, v) with one row per k.
void LoadArithmeticTables(Database* db, int64_t n, int64_t div_zero,
                          int64_t mod_zero) {
  Table* t = db->CreateTable("t", TableSchema()
                                      .AddColumn("k", ValueType::kInt64)
                                      .AddColumn("d", ValueType::kInt64)
                                      .AddColumn("e", ValueType::kInt64))
                 .value();
  Table* u = db->CreateTable("u", TableSchema()
                                      .AddColumn("k", ValueType::kInt64)
                                      .AddColumn("v", ValueType::kString))
                 .value();
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(t->Append(Row{Value(k), Value(int64_t{k == div_zero ? 0 : 1}),
                              Value(int64_t{k == mod_zero ? 0 : 1})})
                    .ok());
    ASSERT_TRUE(u->Append(Row{Value(k), Value("v" + std::to_string(k))}).ok());
  }
}

Result<QueryResult> RunSelect(const Database& db, const std::string& sql,
                              size_t threads, bool lineage) {
  DatabaseCatalog catalog(&db);
  TaskScheduler scheduler(threads);
  ExecOptions options;
  options.capture_lineage = lineage;
  options.scheduler = &scheduler;
  options.morsel_size = 16;
  Executor executor(&catalog, options);
  DL_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(sql));
  return executor.Execute(*stmt);
}

// A scan filter that raises on middle rows: the serial first error (row
// 300's division by zero, not row 700's modulo by zero) is the answer
// whatever the thread count, with small morsels (so the later error's
// morsel can finish first) and with lineage on or off.
TEST(ParallelDeterminismTest, ScanFilterErrorIsTheSerialFirstError) {
  Database db;
  LoadArithmeticTables(&db, 1000, 300, 700);
  const std::string sql = "SELECT k FROM t WHERE k / d + k % e >= 0";
  for (bool lineage : {false, true}) {
    for (size_t threads : {size_t(0), size_t(2)}) {
      Result<QueryResult> r = RunSelect(db, sql, threads, lineage);
      ASSERT_FALSE(r.ok()) << "threads " << threads << " lineage " << lineage;
      EXPECT_EQ(r.status().ToString(), "InvalidArgument: division by zero")
          << "threads " << threads << " lineage " << lineage;
    }
  }
  // Without the row-300 error the row-700 one is first.
  Database later;
  LoadArithmeticTables(&later, 1000, -1, 700);
  Result<QueryResult> r = RunSelect(later, sql, 2, true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), "InvalidArgument: modulo by zero");
}

// A filter that rejects 90% of the scanned rows, alone and feeding a join:
// rows, lineage and emission order are byte-identical across thread counts.
TEST(ParallelDeterminismTest, SelectiveScanIsThreadInvisible) {
  Database db;
  LoadArithmeticTables(&db, 3000, -1, -1);
  for (const std::string sql :
       {"SELECT k, d FROM t WHERE k % 10 = 3",
        "SELECT t.k, u.v FROM t, u WHERE t.k % 10 = 3 AND u.k = t.k",
        "SELECT u.v, t.k FROM u, t WHERE t.k % 10 = 3 AND u.k > t.k - 2 "
        "AND u.k < t.k + 2"}) {
    Result<QueryResult> serial = RunSelect(db, sql, 0, true);
    ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status().ToString();
    EXPECT_GE(serial->rows.size(), 300u) << sql;
    for (size_t threads : {size_t(1), size_t(2)}) {
      Result<QueryResult> parallel = RunSelect(db, sql, threads, true);
      ASSERT_TRUE(parallel.ok()) << sql;
      EXPECT_EQ(parallel->rows, serial->rows) << sql << " threads " << threads;
      EXPECT_EQ(parallel->lineage, serial->lineage)
          << sql << " threads " << threads;
      EXPECT_EQ(parallel->base_relations, serial->base_relations) << sql;
    }
  }
}

}  // namespace
}  // namespace datalawyer
