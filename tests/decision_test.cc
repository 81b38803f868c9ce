// Decision provenance: every checked query leaves a DecisionRecord — the
// verdict, per-policy outcomes recorded during the query, the witness
// tuples behind a rejection, phase timings, and plan-cache behaviour — in a
// ring-bounded DecisionStore, queryable as the dl_decisions relation.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/datalawyer.h"
#include "core/decision.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"

namespace datalawyer {
namespace {

DecisionRecord MakeRecord(uint64_t id, const std::string& sql,
                          bool admitted) {
  DecisionRecord r;
  r.id = id;
  r.ts = int64_t(id) * 10;
  r.query_sql = sql;
  r.admitted = admitted;
  return r;
}

/// The outcome a policy's attribution change across one query implies:
/// violated > pruned > ok > skipped.
std::string ExpectedOutcome(const PolicyStats& before,
                            const PolicyStats& after) {
  if (after.rejections > before.rejections) return "violated";
  if (after.prunes > before.prunes) return "pruned";
  if (after.evaluations > before.evaluations) return "ok";
  return "skipped";
}

TEST(DecisionStoreTest, RingEvictsOldestAndCountsDrops) {
  DecisionStore store(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    store.Append(MakeRecord(i, "q" + std::to_string(i), true));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.total_appended(), 5u);
  EXPECT_EQ(store.dropped(), 2u);
  EXPECT_EQ(store.records().front().query_sql, "q3");
  EXPECT_EQ(store.records().back().query_sql, "q5");
}

// SaveTo ends every line with '\n', so a file cut at any byte either ends
// on a line boundary — a shorter, valid trail — or holds a torn line, which
// must fail the load (a cut query text would otherwise load as a shorter
// query) and leave the store untouched.
TEST(DecisionStoreTest, TornFileRejectedAtEveryOffset) {
  DecisionStore store(8);
  store.Append(MakeRecord(1, "SELECT 12345 FROM t", true));
  DecisionRecord rejected = MakeRecord(2, "SELECT * FROM d_patients", false);
  rejected.uid = 7;
  PolicyOutcome outcome;
  outcome.policy = "p3";
  outcome.outcome = "violated";
  rejected.outcomes.push_back(outcome);
  store.Append(rejected);
  std::string path = ::testing::TempDir() + "/audit_torn.tsv";
  ASSERT_TRUE(store.SaveTo(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_EQ(full.back(), '\n');

  size_t complete = 0;  // cuts that ended on a line boundary
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << full.substr(0, cut);
    DecisionStore restored(8);
    Status st = restored.LoadFrom(path);
    if (cut > 0 && full[cut - 1] == '\n') {
      ++complete;
      ASSERT_TRUE(st.ok()) << "cut " << cut << ": " << st.ToString();
      EXPECT_EQ(restored.size(), complete - 1) << "cut " << cut;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "cut " << cut;
      EXPECT_EQ(restored.size(), 0u) << "cut " << cut;
    }
  }
  EXPECT_EQ(complete, 3u);  // header, then each record
  std::remove(path.c_str());
}

TEST(DecisionStoreTest, NextIdIsMonotonicFromOne) {
  DecisionStore store(4);
  EXPECT_EQ(store.NextId(), 1u);
  EXPECT_EQ(store.NextId(), 2u);
  EXPECT_EQ(store.NextId(), 3u);
}

TEST(DecisionStoreTest, FindByIdResolvesLiveAndEvictedIds) {
  DecisionStore store(2);
  for (uint64_t i = 1; i <= 4; ++i) {
    store.Append(MakeRecord(i, "q" + std::to_string(i), true));
  }
  ASSERT_NE(store.FindById(3), nullptr);
  EXPECT_EQ(store.FindById(3)->query_sql, "q3");
  EXPECT_EQ(store.FindById(1), nullptr);  // evicted
  EXPECT_EQ(store.FindById(99), nullptr);
}

TEST(DecisionStoreTest, TailReturnsMostRecentOldestFirst) {
  DecisionStore store(10);
  for (uint64_t i = 1; i <= 6; ++i) {
    store.Append(MakeRecord(i, "q" + std::to_string(i), true));
  }
  auto tail = store.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].query_sql, "q5");
  EXPECT_EQ(tail[1].query_sql, "q6");
}

TEST(DecisionStoreTest, ToJsonEscapesAndStructures) {
  DecisionStore store(4);
  DecisionRecord r = MakeRecord(1, "SELECT 'tab\there'", false);
  r.policy = "p2";
  r.messages = {"no \"mixing\""};
  DecisionWitness w;
  w.relation = "provenance";
  w.row_id = 7;
  w.from_increment = true;
  w.ts = 30;
  w.values = {"30", "1"};
  r.witnesses.push_back(w);
  store.Append(std::move(r));
  std::string json = store.ToJson();
  EXPECT_NE(json.find("\"verdict\":\"reject\""), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\\"mixing\\\""), std::string::npos);
  EXPECT_NE(json.find("\"relation\":\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"from_increment\":true"), std::string::npos);
}

class DecisionIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadMimicData(&db_, MimicConfig::Tiny()).ok());
  }

  std::unique_ptr<DataLawyer> Make(DataLawyerOptions options) {
    auto dl = std::make_unique<DataLawyer>(
        &db_, UsageLog::WithStandardGenerators(),
        std::make_unique<ManualClock>(0, 10), options);
    for (const auto& [name, sql] : PaperPolicies::All()) {
      EXPECT_TRUE(dl->AddPolicy(name, sql).ok());
    }
    return dl;
  }

  Database db_;
  // Admitted for uid 0; trips P2 for uid 1 (medication joined with sex).
  const std::string join_sql_ =
      "SELECT o.medication, p.sex FROM poe_order o, "
      "d_patients p WHERE o.subject_id = p.subject_id";
};

TEST_F(DecisionIntegrationTest, RecordsVerdictOutcomesAndTimings) {
  auto dl = Make({});
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());
  ASSERT_TRUE(dl->WouldAllow(join_sql_, ctx).IsPolicyViolation());

  const DecisionStore& store = dl->decision_store();
  ASSERT_EQ(store.size(), 3u);

  const DecisionRecord& admit = store.records()[0];
  EXPECT_EQ(admit.id, 1u);
  EXPECT_TRUE(admit.admitted);
  EXPECT_FALSE(admit.probe);
  EXPECT_STREQ(admit.verdict(), "accept");
  EXPECT_EQ(admit.query_sql, join_sql_);
  EXPECT_NE(admit.query_hash, 0u);
  EXPECT_TRUE(admit.policy.empty());
  EXPECT_TRUE(admit.witnesses.empty());
  EXPECT_GT(admit.total_us(), 0.0);
  EXPECT_GT(admit.phases.policy_eval_us, 0.0);
  // Every active policy reports an outcome; none rejected this query.
  ASSERT_GE(admit.outcomes.size(), dl->active_policies().size());
  for (const PolicyOutcome& o : admit.outcomes) {
    EXPECT_NE(o.outcome, "violated") << o.policy;
  }

  const DecisionRecord& reject = store.records()[1];
  EXPECT_EQ(reject.id, 2u);
  EXPECT_FALSE(reject.admitted);
  EXPECT_EQ(reject.policy, "p2");
  EXPECT_FALSE(reject.messages.empty());
  bool saw_violated = false;
  for (const PolicyOutcome& o : reject.outcomes) {
    if (o.policy == "p2") {
      EXPECT_EQ(o.outcome, "violated");
      EXPECT_GT(o.evaluations, 0u);
      saw_violated = true;
    }
  }
  EXPECT_TRUE(saw_violated);
  EXPECT_FALSE(reject.witnesses.empty());

  const DecisionRecord& probe = store.records()[2];
  EXPECT_EQ(probe.id, 3u);
  EXPECT_TRUE(probe.probe);
  EXPECT_FALSE(probe.admitted);
}

TEST_F(DecisionIntegrationTest, WitnessRowsComeFromTheUsageLog) {
  auto dl = Make({});
  QueryContext ctx;
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());

  const DecisionRecord& reject = dl->decision_store().records().back();
  ASSERT_FALSE(reject.witnesses.empty());
  for (const DecisionWitness& w : reject.witnesses) {
    EXPECT_TRUE(dl->usage_log()->IsLogRelation(w.relation)) << w.relation;
    EXPECT_FALSE(w.values.empty());
    // The rejection was caused by this query's own accesses, so its
    // witnesses must include increment rows stamped with this query's ts.
  }
  bool any_increment = false;
  for (const DecisionWitness& w : reject.witnesses) {
    any_increment = any_increment || w.from_increment;
  }
  EXPECT_TRUE(any_increment);
}

// Acceptance: the witness set computed through the optimized pipeline
// (plan cache, optimizer, stats costing) is byte-identical to a naive full
// re-evaluation with every optimization disabled in the capture executor.
TEST_F(DecisionIntegrationTest, WitnessesMatchNaiveReEvaluationExactly) {
  auto run = [&](bool naive) {
    DataLawyerOptions options = DataLawyerOptions::AllOptimizations();
    options.decision_witness_naive = naive;
    options.decision_witness_limit = 1000000;  // no truncation
    auto dl = Make(options);
    QueryContext ctx;
    ctx.uid = 0;
    EXPECT_TRUE(dl->Execute(join_sql_, ctx).ok());
    ctx.uid = 1;
    EXPECT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());
    const DecisionRecord& reject = dl->decision_store().records().back();
    std::string dump;
    for (const DecisionWitness& w : reject.witnesses) {
      dump += w.relation + "|" + std::to_string(w.row_id) + "|" +
              (w.from_increment ? "i" : "m") + "|" + std::to_string(w.ts);
      for (const std::string& v : w.values) dump += "|" + v;
      dump += "\n";
    }
    EXPECT_FALSE(dump.empty());
    return dump;
  };
  EXPECT_EQ(run(/*naive=*/false), run(/*naive=*/true));
}

// Witnesses come from the violated policy's cached plan: a rejected query
// binds once (the user query) and plans no more with decisions on than off.
TEST_F(DecisionIntegrationTest, RejectBindsAndPlansOnce) {
  auto spans = [&](bool decisions) {
    DataLawyerOptions options;
    options.enable_decisions = decisions;
    options.enable_tracing = true;
    auto dl = Make(options);
    QueryContext ctx;
    ctx.uid = 0;
    EXPECT_TRUE(dl->Execute(join_sql_, ctx).ok());  // prepares, warms
    Tracer::Global().Clear();
    ctx.uid = 1;
    EXPECT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());
    EXPECT_EQ(dl->decision_store().records().empty(), !decisions);
    std::pair<size_t, size_t> bind_planning{0, 0};
    for (const TraceEvent& e : Tracer::Global().Snapshot()) {
      if (e.name == "analysis.bind") ++bind_planning.first;
      if (e.name == "planning") ++bind_planning.second;
    }
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
    return bind_planning;
  };
  std::pair<size_t, size_t> on = spans(true);
  std::pair<size_t, size_t> off = spans(false);
  EXPECT_EQ(on.first, 1u);
  EXPECT_EQ(off.first, 1u);
  EXPECT_EQ(on.second, off.second);
}

TEST_F(DecisionIntegrationTest, WitnessLimitTruncatesAndCounts) {
  DataLawyerOptions options;
  options.decision_witness_limit = 2;
  auto dl = Make(options);
  QueryContext ctx;
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());
  const DecisionRecord& reject = dl->decision_store().records().back();
  EXPECT_EQ(reject.witnesses.size(), 2u);
  EXPECT_GT(reject.witnesses_truncated, 0u);
}

TEST_F(DecisionIntegrationTest, DlDecisionsAggregatesMatchAttribution) {
  auto dl = Make({});
  QueryContext ctx;
  for (int i = 0; i < 6; ++i) {
    ctx.uid = i % 2;
    auto result = dl->Execute(join_sql_, ctx);
    ASSERT_TRUE(result.ok() || result.status().IsPolicyViolation());
  }

  // Aggregate the telemetry relation with ordinary SQL and compare against
  // the attribution surfaces it must agree with.
  auto rejected = dl->QueryUsageLog(
      "SELECT policy, COUNT(*) FROM dl_decisions "
      "WHERE verdict = 'reject' GROUP BY policy");
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  std::map<std::string, int64_t> sql_rejections;
  for (const Row& row : rejected->rows) {
    sql_rejections[row[0].AsString()] = row[1].AsInt64();
  }
  std::map<std::string, int64_t> report_rejections;
  for (const PolicyStats& ps : dl->PolicyReport()) {
    if (ps.rejections > 0) {
      report_rejections[ps.name] += int64_t(ps.rejections);
    }
  }
  EXPECT_EQ(sql_rejections, report_rejections);

  // dl_policy_stats is PolicyReport verbatim.
  auto stats = dl->QueryUsageLog(
      "SELECT policy, evaluations, prunes, rejections FROM dl_policy_stats");
  ASSERT_TRUE(stats.ok());
  std::vector<PolicyStats> report = dl->PolicyReport();
  ASSERT_EQ(stats->rows.size(), report.size());
  for (size_t i = 0; i < report.size(); ++i) {
    EXPECT_EQ(stats->rows[i][0].AsString(), report[i].name);
    EXPECT_EQ(stats->rows[i][1].AsInt64(), int64_t(report[i].evaluations));
    EXPECT_EQ(stats->rows[i][2].AsInt64(), int64_t(report[i].prunes));
    EXPECT_EQ(stats->rows[i][3].AsInt64(), int64_t(report[i].rejections));
  }
}

// Outcomes are recorded directly from each query's attribution slots. Under
// every strategy, serial and parallel, each outcome must equal its policy's
// PolicyReport delta across the query, with the outcome string following
// violated > pruned > ok > skipped, and "(union)" present exactly when the
// combined union statement ran.
TEST_F(DecisionIntegrationTest, OutcomesEqualPolicyReportDeltas) {
  auto report = [](const DataLawyer& dl) {
    std::map<std::string, PolicyStats> by_name;
    for (const PolicyStats& ps : dl.PolicyReport()) by_name[ps.name] = ps;
    return by_name;
  };
  for (EvalStrategy strategy : {EvalStrategy::kInterleaved,
                                EvalStrategy::kSerial, EvalStrategy::kUnion}) {
    for (int threads : {0, 4}) {
      SCOPED_TRACE("strategy " + std::to_string(int(strategy)) + " threads " +
                   std::to_string(threads));
      DataLawyerOptions options;
      options.strategy = strategy;
      options.policy_threads = threads;
      (void)options.ClampThreadCounts();
      auto dl = Make(options);
      QueryContext ctx;
      bool saw_union = false;
      for (int i = 0; i < 8; ++i) {
        ctx.uid = i % 2;
        std::map<std::string, PolicyStats> before = report(*dl);
        if (i == 5) {
          (void)dl->WouldAllow(join_sql_, ctx);
        } else {
          (void)dl->Execute(
              i == 2 ? "SELECT COUNT(*) FROM d_patients" : join_sql_, ctx);
        }
        std::map<std::string, PolicyStats> after = report(*dl);
        const DecisionRecord& d = dl->decision_store().records().back();
        ASSERT_EQ(d.id, uint64_t(i + 1));

        const std::vector<Policy>& active = dl->active_policies();
        bool union_ran =
            after["(union)"].evaluations > before["(union)"].evaluations;
        saw_union = saw_union || union_ran;
        ASSERT_EQ(d.outcomes.size(), active.size() + (union_ran ? 1 : 0));
        for (size_t k = 0; k < d.outcomes.size(); ++k) {
          const PolicyOutcome& o = d.outcomes[k];
          EXPECT_EQ(o.policy, k < active.size() ? active[k].name : "(union)");
          const PolicyStats& a = after[o.policy];
          const PolicyStats& b = before[o.policy];
          EXPECT_EQ(o.evaluations, a.evaluations - b.evaluations) << o.policy;
          EXPECT_EQ(o.prunes, a.prunes - b.prunes) << o.policy;
          EXPECT_NEAR(o.eval_us, a.eval_us - b.eval_us, 1e-6) << o.policy;
          EXPECT_EQ(o.outcome, ExpectedOutcome(b, a)) << o.policy;
        }
      }
      EXPECT_EQ(saw_union, strategy == EvalStrategy::kUnion);
    }
  }
}

// Snapshot semantics: a query over dl_decisions is itself checked and
// recorded, but it can never observe its own record — the snapshot is
// materialized before the verdict lands.
TEST_F(DecisionIntegrationTest, TelemetryQueryDoesNotSeeItself) {
  auto dl = Make({});
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());

  auto count = dl->Execute("SELECT COUNT(*) FROM dl_decisions", ctx);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt64(), 1);  // not 2: excludes itself
  EXPECT_EQ(dl->decision_store().size(), 2u);  // but it was recorded

  // The next query's snapshot includes it.
  auto again = dl->Execute("SELECT COUNT(*) FROM dl_decisions", ctx);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows[0][0].AsInt64(), 2);
}

TEST_F(DecisionIntegrationTest, RealTableShadowsSystemRelation) {
  ASSERT_TRUE(db_.CreateTable("dl_decisions", TableSchema().AddColumn(
                                                  "x", ValueType::kInt64))
                  .ok());
  auto dl = Make({});
  QueryContext ctx;
  ctx.uid = 0;
  auto result = dl->Execute("SELECT x FROM dl_decisions", ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 0u);  // the real (empty) table won
}

TEST_F(DecisionIntegrationTest, DisabledStoreRecordsNothing) {
  DataLawyerOptions options;
  options.enable_decisions = false;
  auto dl = Make(options);
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());
  EXPECT_EQ(dl->decision_store().size(), 0u);
  EXPECT_EQ(dl->decision_store().total_appended(), 0u);
  // Attribution does not depend on the store.
  uint64_t rejections = 0;
  for (const PolicyStats& ps : dl->PolicyReport()) rejections += ps.rejections;
  EXPECT_EQ(rejections, 1u);
}

TEST_F(DecisionIntegrationTest, CapacityOptionBoundsTheRing) {
  DataLawyerOptions options;
  options.decision_capacity = 2;
  auto dl = Make(options);
  QueryContext ctx;
  ctx.uid = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  }
  EXPECT_EQ(dl->decision_store().size(), 2u);
  EXPECT_EQ(dl->decision_store().dropped(), 2u);
  // Ids keep counting across evictions.
  EXPECT_EQ(dl->decision_store().records().back().id, 4u);
}

TEST_F(DecisionIntegrationTest, ParseErrorsAreNotDecisions) {
  auto dl = Make({});
  QueryContext ctx;
  ctx.uid = 0;
  EXPECT_FALSE(dl->Execute("SELECT nonsense FROM nowhere", ctx).ok());
  EXPECT_EQ(dl->decision_store().size(), 0u);
}

}  // namespace
}  // namespace datalawyer
