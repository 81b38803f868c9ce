// Property: no combination of DataLawyer's options may change what a query
// observes — the optimizations are performance transformations, not
// semantics changes. Two halves:
//
//  * Semantic: every combination of the §4 rewrites (compaction with its
//    period and async variants, time-independent rewriting, unification,
//    preemptive compaction, improved partials, evaluation strategy) must
//    return NoOpt()'s full status — code and every violation message — at
//    every step. Steps after a compaction check that it preserved every
//    future verdict (Lemmas 4.1–4.3).
//  * Physical: incremental evaluation, stats costing, hash and ordered log
//    indexes, morsel execution (fixed and adaptive) and policy fan-out,
//    over two bases (the defaults and NoOpt()). Every row must be
//    byte-equal to its base run serially with every physical knob off:
//    statuses, decision records with witness rows, the final usage
//    log, and every admitted answer.
//
// Every admitted answer must also carry no lineage and equal a direct
// Engine run of the same SQL.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>

#include "admitted_answer.h"
#include "core/datalawyer.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

struct SemanticCombo {
  bool compaction;
  int compaction_period;
  bool async_compaction;
  bool time_independent;
  bool unification;
  bool preemptive;
  bool improved_partial;
  EvalStrategy strategy;

  std::string Label() const {
    std::string s;
    s += compaction ? "C" + std::to_string(compaction_period) : "-";
    s += async_compaction ? "A" : "-";
    s += time_independent ? "T" : "-";
    s += unification ? "U" : "-";
    s += preemptive ? "P" : "-";
    s += improved_partial ? "I" : "-";
    s += strategy == EvalStrategy::kInterleaved ? "i"
         : strategy == EvalStrategy::kSerial    ? "s"
                                                : "u";
    return s;
  }

  void ApplyTo(DataLawyerOptions* options) const {
    options->enable_log_compaction = compaction;
    options->compaction_period = compaction_period;
    options->async_compaction = async_compaction;
    options->enable_time_independent = time_independent;
    options->enable_unification = unification;
    options->enable_preemptive_compaction = preemptive;
    options->enable_improved_partial = improved_partial;
    options->strategy = strategy;
  }
};

std::vector<SemanticCombo> SemanticCombos() {
  std::vector<SemanticCombo> combos;
  for (bool c : {false, true}) {
    for (int period : {1, 3}) {
      for (bool async : {false, true}) {
        for (bool t : {false, true}) {
          for (bool u : {false, true}) {
            for (bool p : {false, true}) {
              for (bool i : {false, true}) {
                for (EvalStrategy s :
                     {EvalStrategy::kInterleaved, EvalStrategy::kSerial,
                      EvalStrategy::kUnion}) {
                  // Period, async and preemptive compaction only modify
                  // behaviour under compaction, and improved partials only
                  // under interleaving; prune the redundant rows.
                  if (!c && (period != 1 || async || p)) continue;
                  if (i && s != EvalStrategy::kInterleaved) continue;
                  combos.push_back(
                      SemanticCombo{c, period, async, t, u, p, i, s});
                }
              }
            }
          }
        }
      }
    }
  }
  return combos;
}

/// The knobs that choose how a verdict is computed, never which one.
struct PhysicalKnobs {
  bool incremental;
  bool stats_costing;
  bool log_indexes;
  bool ordered_log_indexes;
  enum Exec { kSerialExec, kFixedMorsels, kAdaptiveMorsels } exec;
  int policy_threads;

  std::string Label() const {
    std::string s;
    s += incremental ? "N" : "-";
    s += stats_costing ? "S" : "-";
    s += log_indexes ? "H" : "-";
    s += ordered_log_indexes ? "O" : "-";
    s += exec == kSerialExec ? "e0" : exec == kFixedMorsels ? "e4f" : "e4a";
    s += "p" + std::to_string(policy_threads);
    return s;
  }

  void ApplyTo(DataLawyerOptions* options) const {
    options->enable_incremental_eval = incremental;
    options->enable_stats_costing = stats_costing;
    options->enable_log_indexes = log_indexes;
    options->enable_ordered_log_indexes = ordered_log_indexes;
    options->exec_threads = exec == kSerialExec ? 0 : 4;
    options->adaptive_morsel_size = exec == kAdaptiveMorsels;
    // Small enough that even the tiny tables split into morsels.
    options->morsel_size = 16;
    options->policy_threads = policy_threads;
  }
};

const PhysicalKnobs kAllPhysicalOff{false, false, false, false,
                                    PhysicalKnobs::kSerialExec, 0};

/// A fixed all-pairs covering array over the physical knobs: every value
/// of every knob meets every value of every other knob in some row (the
/// test checks this). It opens with the all-on row and the four rows that
/// each turn off exactly one of incremental evaluation, stats costing,
/// morsel execution and adaptive sizing. The full product has 96 rows per
/// base; these 11 rows take under 2 s in RelWithDebInfo on a 4-core x86-64
/// machine.
std::vector<PhysicalKnobs> PhysicalRows() {
  constexpr auto kSerial = PhysicalKnobs::kSerialExec;
  constexpr auto kFixed = PhysicalKnobs::kFixedMorsels;
  constexpr auto kAdaptive = PhysicalKnobs::kAdaptiveMorsels;
  return {
      {true, true, true, true, kAdaptive, 4},  // all on
      {false, true, true, true, kAdaptive, 4},
      {true, false, true, true, kAdaptive, 4},
      {true, true, true, true, kSerial, 4},
      {true, true, true, true, kFixed, 4},
      {false, false, false, false, kSerial, 0},
      {true, true, false, false, kFixed, 0},
      {false, false, false, false, kAdaptive, 4},
      {false, false, false, true, kFixed, 0},
      {false, false, true, false, kAdaptive, 0},
      {false, false, false, true, kSerial, 0},
  };
}

/// The knob values of `row`, one small integer per knob.
std::vector<int> KnobValues(const PhysicalKnobs& row) {
  return {row.incremental,         row.stats_costing, row.log_indexes,
          row.ordered_log_indexes, int(row.exec),     row.policy_threads};
}

/// One scripted scenario exercising accepts and rejects across every
/// policy in Policies().
struct Step {
  int64_t uid;
  std::string sql;
};

std::vector<Step> Scenario(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Step> steps;
  auto queries = PaperQueries::All();
  for (int i = 0; i < 25; ++i) {
    steps.push_back(
        Step{int64_t(rng() % 2), queries[rng() % queries.size()].second});
  }
  // A join that trips P2 for uid 1.
  steps.push_back(Step{1,
                       "SELECT o.medication, p.sex FROM poe_order o, "
                       "d_patients p WHERE o.subject_id = p.subject_id"});
  steps.push_back(Step{0,
                       "SELECT o.medication, p.sex FROM poe_order o, "
                       "d_patients p WHERE o.subject_id = p.subject_id"});
  // Trips the UNION policy's provenance member.
  steps.push_back(Step{0, "SELECT * FROM d_patients"});
  for (int i = 0; i < 4; ++i) {
    steps.push_back(
        Step{int64_t(rng() % 2), queries[rng() % queries.size()].second});
  }
  return steps;
}

/// P1–P6, a rate limit, a history-wide COUNT(*) cap (no column reference
/// in its aggregate: its §4.4 partial over an emptied FROM must not prune),
/// and a UNION policy with a windowed and a per-query member.
std::vector<std::pair<std::string, std::string>> Policies() {
  auto policies = PaperPolicies::All();
  policies.emplace_back("rate", PaperPolicies::RateLimitForUser(0, 200, 5));
  policies.emplace_back("cap",
                        "SELECT DISTINCT 'm' FROM users u WHERE u.uid = 1 "
                        "HAVING COUNT(*) > 5");
  policies.emplace_back(
      "union",
      "SELECT DISTINCT 'uid 0 read chartevents 3 times in 100' "
      "FROM users u, schema s, clock c "
      "WHERE u.ts = s.ts AND u.uid = 0 AND s.irid = 'chartevents' "
      "AND u.ts > c.ts - 100 HAVING COUNT(DISTINCT u.ts) > 2 "
      "UNION SELECT DISTINCT 'over 100 d_patients tuples in one query' "
      "FROM provenance p WHERE p.irid = 'd_patients' "
      "GROUP BY p.ts HAVING COUNT(DISTINCT p.itid) > 100");
  return policies;
}

/// Everything a run exposes, flattened to comparable strings.
struct Observed {
  std::vector<std::string> statuses;  // one per step
  std::vector<std::vector<std::string>> violations;  // one per step
  std::string decisions;  // per decision: verdict, messages, witness rows
  std::string log;        // every usage-log main relation after Flush
  std::vector<AdmittedAnswer> answers;  // one per admitted step
  uint64_t incremental_hits = 0;  // verdicts served from state
  uint64_t morsels = 0;           // plan morsels dispatched
};

Observed RunScenario(Database* db, const DataLawyerOptions& options,
                     const std::vector<Step>& steps) {
  DataLawyer dl(db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), options);
  for (const auto& [name, sql] : Policies()) {
    EXPECT_TRUE(dl.AddPolicy(name, sql).ok()) << name;
  }
  Observed out;
  for (const Step& step : steps) {
    QueryContext ctx;
    ctx.uid = step.uid;
    Result<QueryResult> result = dl.Execute(step.sql, ctx);
    out.statuses.push_back(result.status().ToString());
    if (result.ok()) {
      out.answers.push_back(CheckAdmittedAnswer(db, step.sql, *result));
    }
    out.violations.push_back(dl.last_stats().violations);
    out.incremental_hits += dl.last_stats().incremental_hits;
    out.morsels += dl.last_stats().morsels;
  }
  for (const DecisionRecord& d : dl.decision_store().records()) {
    out.decisions += std::to_string(d.ts) + "|" + std::to_string(d.uid) +
                     "|" + d.verdict() + "|" + d.policy;
    for (const std::string& m : d.messages) out.decisions += ";" + m;
    for (const DecisionWitness& w : d.witnesses) {
      out.decisions += "/w:" + w.relation + ":" + std::to_string(w.row_id) +
                       ":" + (w.from_increment ? "i" : "m") + ":" +
                       std::to_string(w.ts);
      for (const std::string& v : w.values) out.decisions += "," + v;
    }
    out.decisions += "/trunc=" + std::to_string(d.witnesses_truncated) + "\n";
  }
  EXPECT_TRUE(dl.Flush().ok());
  for (const std::string& name : dl.usage_log()->RelationNamesInOrder()) {
    const Table* main = dl.usage_log()->main_table(name);
    out.log += name + ":\n";
    for (size_t i = 0; i < main->NumRows(); ++i) {
      for (const Value& v : main->RowAt(i)) out.log += v.ToString() + ",";
      out.log += "\n";
    }
  }
  return out;
}

class DataLawyerOptionsMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadMimicData(&db_, MimicConfig::Tiny()).ok());
  }

  Database db_;
  std::vector<Step> steps_ = Scenario(7);
};

// The union strategy evaluates every policy, as NoOpt() does, so it must
// report NoOpt()'s status verbatim. The serial and interleaved strategies
// stop at the first violation they reach, so they report the same verdict
// with a non-empty subset of its violation messages.
TEST_F(DataLawyerOptionsMatrixTest, AllCombosAgreeOnEveryVerdict) {
  Observed reference = RunScenario(&db_, DataLawyerOptions::NoOpt(), steps_);
  // Both verdicts must occur, and several policies — one step with two at
  // once — must reject, or the property is vacuous.
  size_t admits = 0;
  size_t multiple = 0;
  std::string rejections;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if (reference.statuses[i] == "OK") ++admits;
    if (reference.violations[i].size() > 1) ++multiple;
    rejections += reference.statuses[i] + "\n";
  }
  EXPECT_NE(admits, 0u);
  EXPECT_NE(multiple, 0u);
  for (const char* needle :
       {"P2 violated", "rate limit", "PolicyViolation: m",
        "uid 0 read chartevents", "over 100 d_patients"}) {
    EXPECT_NE(rejections.find(needle), std::string::npos) << needle;
  }

  std::vector<SemanticCombo> combos = SemanticCombos();
  EXPECT_EQ(combos.size(), 144u);
  for (const SemanticCombo& combo : combos) {
    DataLawyerOptions options;
    combo.ApplyTo(&options);
    Observed run = RunScenario(&db_, options, steps_);
    for (size_t i = 0; i < steps_.size(); ++i) {
      const std::string where = "combo " + combo.Label() + " step " +
                                std::to_string(i) + " uid " +
                                std::to_string(steps_[i].uid) + ": " +
                                run.statuses[i];
      if (combo.strategy == EvalStrategy::kUnion) {
        ASSERT_EQ(run.statuses[i], reference.statuses[i]) << where;
        continue;
      }
      auto code = [](const std::string& status) {
        return status.substr(0, status.find(':'));
      };
      ASSERT_EQ(code(run.statuses[i]), code(reference.statuses[i])) << where;
      ASSERT_EQ(run.violations[i].empty(), reference.violations[i].empty())
          << where;
      for (const std::string& message : run.violations[i]) {
        ASSERT_NE(std::find(reference.violations[i].begin(),
                            reference.violations[i].end(), message),
                  reference.violations[i].end())
            << where;
      }
    }
    // Equal verdicts admit the same steps, which must answer the same.
    ASSERT_EQ(run.answers, reference.answers) << "combo " << combo.Label();
  }
}

TEST_F(DataLawyerOptionsMatrixTest, PhysicalKnobsAreInvisible) {
  std::vector<PhysicalKnobs> rows = PhysicalRows();
  // Every pair of knob values occurs in some row.
  const std::vector<std::vector<int>> domains = {
      {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1, 2}, {0, 4}};
  for (size_t i = 0; i < domains.size(); ++i) {
    for (size_t j = i + 1; j < domains.size(); ++j) {
      for (int a : domains[i]) {
        for (int b : domains[j]) {
          bool present = false;
          for (const PhysicalKnobs& row : rows) {
            std::vector<int> v = KnobValues(row);
            present = present || (v[i] == a && v[j] == b);
          }
          EXPECT_TRUE(present) << "knobs " << i << "=" << a << ", " << j
                               << "=" << b;
        }
      }
    }
  }
  // The all-on row, then the rows that each turn off one of incremental
  // evaluation, stats costing, morsel execution and adaptive sizing.
  const PhysicalKnobs all_on = rows[0];
  std::vector<PhysicalKnobs> one_off(4, all_on);
  one_off[0].incremental = false;
  one_off[1].stats_costing = false;
  one_off[2].exec = PhysicalKnobs::kSerialExec;
  one_off[3].exec = PhysicalKnobs::kFixedMorsels;
  EXPECT_EQ(all_on.Label(), "NSHOe4ap4");
  for (size_t i = 0; i < one_off.size(); ++i) {
    EXPECT_EQ(rows[i + 1].Label(), one_off[i].Label());
  }

  for (const DataLawyerOptions& base :
       {DataLawyerOptions::AllOptimizations(), DataLawyerOptions::NoOpt()}) {
    DataLawyerOptions reference_options = base;
    kAllPhysicalOff.ApplyTo(&reference_options);
    Observed reference = RunScenario(&db_, reference_options, steps_);
    // Rejections carry witness rows, or their comparison is vacuous.
    EXPECT_NE(reference.decisions.find("/w:"), std::string::npos);
    const std::string base_label =
        base.enable_log_compaction ? "defaults" : "NoOpt";
    for (const PhysicalKnobs& row : rows) {
      DataLawyerOptions options = base;
      row.ApplyTo(&options);
      Observed run = RunScenario(&db_, options, steps_);
      const std::string where = base_label + " " + row.Label();
      ASSERT_EQ(run.statuses, reference.statuses) << where;
      ASSERT_EQ(run.decisions, reference.decisions) << where;
      ASSERT_EQ(run.log, reference.log) << where;
      ASSERT_EQ(run.answers, reference.answers) << where;
      // The all-on row demonstrably takes the fast paths.
      if (row.Label() == all_on.Label()) {
        EXPECT_GT(run.incremental_hits, 0u) << where;
        EXPECT_GT(run.morsels, 0u) << where;
      }
    }
  }
}

// `u.uid = 1.0` meets the integer uids the log stores under SQL `=`, so a
// plan that answers it through a log hash index must count what NoOpt()'s
// full scans count: the third W1 query of uid 1 onward is rejected.
TEST(DataLawyerOptionsTest, DoubleKeyPolicyMatchesIntegerLog) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  DataLawyerOptions costing_off;
  costing_off.enable_stats_costing = false;
  const DataLawyerOptions runs[2] = {costing_off, DataLawyerOptions::NoOpt()};
  std::vector<std::string> statuses[2];
  for (int r = 0; r < 2; ++r) {
    DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                  std::make_unique<ManualClock>(0, 10), runs[r]);
    ASSERT_TRUE(dl.AddPolicy("double_uid",
                             "SELECT DISTINCT 'uid 1 ran over 2 queries' "
                             "FROM users u WHERE u.uid = 1.0 "
                             "HAVING COUNT(u.uid) > 2")
                    .ok());
    for (int i = 0; i < 5; ++i) {
      QueryContext ctx;
      ctx.uid = 1;
      statuses[r].push_back(
          dl.Execute(PaperQueries::W1(), ctx).status().ToString());
    }
  }
  EXPECT_EQ(statuses[0], statuses[1]);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(statuses[1][i] == "OK", i < 2) << i << ": " << statuses[1][i];
  }
}

TEST(DataLawyerOptionsTest, StatsReportPhases) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  QueryContext ctx;
  ctx.uid = 1;
  {
    DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                  std::make_unique<ManualClock>(0, 10), {});
    ASSERT_TRUE(dl.AddPolicy("p6", PaperPolicies::P6()).ok());
    ASSERT_TRUE(dl.Execute(PaperQueries::W2(), ctx).ok());
    const ExecutionStats& stats = dl.last_stats();
    EXPECT_GT(stats.ts, 0);
    // f_Provenance's lineage run is the query's only run, timed as log
    // generation; the query phase only strips the lineage.
    EXPECT_GT(stats.log_gen_ms, 0.0);
    EXPECT_EQ(stats.logs_generated, 2u);  // users + provenance
    EXPECT_GT(stats.log_rows_staged, 0u);
    EXPECT_GT(stats.policies_evaluated, 0u);
    EXPECT_FALSE(stats.rejected);
    EXPECT_GE(stats.total_ms(), stats.overhead_ms());
  }
  // Without a provenance policy the query runs in its own phase.
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), {});
  ASSERT_TRUE(dl.AddPolicy("p1", PaperPolicies::P1()).ok());
  ASSERT_TRUE(dl.Execute(PaperQueries::W2(), ctx).ok());
  EXPECT_GT(dl.last_stats().query_exec_ms, 0.0);
  EXPECT_EQ(dl.last_stats().logs_generated, 1u);  // users
}

TEST(DataLawyerOptionsTest, RejectionStatsCarryViolations) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), {});
  ASSERT_TRUE(dl.AddPolicy("p3", PaperPolicies::P3(1, 10)).ok());
  QueryContext ctx;
  ctx.uid = 1;
  auto result = dl.Execute("SELECT * FROM d_patients", ctx);
  ASSERT_FALSE(result.ok());
  const ExecutionStats& stats = dl.last_stats();
  EXPECT_TRUE(stats.rejected);
  ASSERT_EQ(stats.violations.size(), 1u);
  EXPECT_NE(stats.violations[0].find("P3 violated"), std::string::npos);
}

TEST(DataLawyerOptionsTest, PerCallOverheadIsObservable) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  DataLawyerOptions slow;
  slow.per_call_overhead_us = 2000;
  slow.strategy = EvalStrategy::kSerial;
  slow.enable_unification = false;  // keep 4 separate policy statements
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), slow);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(dl.AddPolicy("rate" + std::to_string(i),
                             PaperPolicies::RateLimitForUser(i + 10))
                    .ok());
  }
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl.Execute(PaperQueries::W1(), ctx).ok());
  // 4 serial policy statements × 2ms of simulated dispatch each.
  EXPECT_GE(dl.last_stats().policy_eval_ms(), 8.0);
}

TEST(DataLawyerOptionsTest, AddRemovePolicyLifecycle) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  DataLawyer dl(&db);
  ASSERT_TRUE(dl.AddPolicy("p2", PaperPolicies::P2()).ok());
  EXPECT_EQ(dl.AddPolicy("p2", PaperPolicies::P2()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dl.NumPolicies(), 1u);

  QueryContext ctx;
  ctx.uid = 1;
  std::string join =
      "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
      "WHERE o.subject_id = p.subject_id";
  EXPECT_FALSE(dl.Execute(join, ctx).ok());
  ASSERT_TRUE(dl.RemovePolicy("p2").ok());
  EXPECT_TRUE(dl.Execute(join, ctx).ok());
  EXPECT_FALSE(dl.RemovePolicy("p2").ok());

  // Policies that do not bind are rejected at registration.
  EXPECT_FALSE(dl.AddPolicy("bad", "SELECT x FROM no_such_table").ok());
  EXPECT_FALSE(dl.AddPolicy("notsql", "DROP TABLE users").ok());
}

TEST(DataLawyerOptionsTest, Section6DevicePolicy) {
  // §6: "a policy that restricts queries from 'mobile' devices to output
  // sizes of 10 tuples" — a new log-generating function plus a SQL policy.
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  auto log = UsageLog::WithStandardGenerators();
  ASSERT_TRUE(log->RegisterGenerator(std::make_unique<DeviceLogGenerator>())
                  .ok());
  DataLawyer dl(&db, std::move(log), std::make_unique<ManualClock>(0, 10),
                {});
  ASSERT_TRUE(dl.AddPolicy("mobile-cap", R"sql(
    SELECT DISTINCT 'mobile queries may return at most 10 tuples'
    FROM devices d, provenance p
    WHERE d.ts = p.ts AND d.device = 'mobile'
    GROUP BY p.ts HAVING COUNT(DISTINCT p.otid) > 10
  )sql")
                  .ok());

  QueryContext mobile;
  mobile.uid = 1;
  mobile.extras["device"] = Value("mobile");
  QueryContext desktop;
  desktop.uid = 1;
  desktop.extras["device"] = Value("desktop");

  std::string broad = "SELECT * FROM d_patients WHERE subject_id < 50";
  EXPECT_FALSE(dl.Execute(broad, mobile).ok());
  EXPECT_TRUE(dl.Execute(broad, desktop).ok());
  EXPECT_TRUE(dl.Execute(PaperQueries::W1(), mobile).ok());
}

// Regression: negative or absurd thread counts are misconfigurations, not
// crashes. ClampThreadCounts repairs the fields in place and reports every
// adjustment; DataLawyer applies the same clamp on construction and
// set_options, so a pool can never be sized from a negative int converted
// to size_t.
TEST(DataLawyerOptionsTest, ThreadCountsAreClamped) {
  unsigned hw = std::thread::hardware_concurrency();
  int max_threads = int(hw == 0 ? 1 : hw);

  // Direct call: every out-of-range field is named in the warning.
  DataLawyerOptions bad;
  bad.policy_threads = -3;
  bad.exec_threads = 1 << 20;  // a likely unit error, far past any machine
  bad.morsel_size = 0;
  Status warn = bad.ClampThreadCounts();
  EXPECT_FALSE(warn.ok());
  EXPECT_NE(warn.ToString().find("policy_threads"), std::string::npos);
  EXPECT_NE(warn.ToString().find("exec_threads"), std::string::npos);
  EXPECT_NE(warn.ToString().find("morsel_size"), std::string::npos);
  EXPECT_EQ(bad.policy_threads, 0);
  EXPECT_EQ(bad.exec_threads, max_threads);
  EXPECT_EQ(bad.morsel_size, size_t(1));

  // In-range values pass through untouched with an OK status.
  DataLawyerOptions good;
  good.policy_threads = max_threads;
  good.exec_threads = 0;
  EXPECT_TRUE(good.ClampThreadCounts().ok());
  EXPECT_EQ(good.policy_threads, max_threads);
  EXPECT_EQ(good.exec_threads, 0);

  // Construction clamps silently and the instance still enforces.
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  DataLawyerOptions absurd;
  absurd.policy_threads = -7;
  absurd.exec_threads = 1 << 20;
  absurd.morsel_size = 0;
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), absurd);
  EXPECT_EQ(dl.options().policy_threads, 0);
  EXPECT_EQ(dl.options().exec_threads, max_threads);
  EXPECT_EQ(dl.options().morsel_size, size_t(1));
  ASSERT_TRUE(dl.AddPolicy("p2", PaperPolicies::P2()).ok());
  QueryContext ctx;
  ctx.uid = 1;
  EXPECT_TRUE(dl.Execute(PaperQueries::W1(), ctx).ok());

  // set_options re-applies the clamp.
  absurd.policy_threads = 1 << 20;
  absurd.exec_threads = -1;
  dl.set_options(absurd);
  EXPECT_EQ(dl.options().policy_threads, max_threads);
  EXPECT_EQ(dl.options().exec_threads, 0);
}

}  // namespace
}  // namespace datalawyer
