// Interleaved evaluation (§4.4) composed with incremental state: a policy
// whose IncrementalState is ready never runs a partial statement π_S. It is
// answered from state at the round that covers it, or earlier, at the
// first round whose increment check proves the staged rows cannot join
// into it. Policies without a ready state keep the partial path.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/datalawyer.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

class InterleavedStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadMimicData(&db_, MimicConfig::Tiny()).ok());
  }

  void TearDown() override {
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
  }

  std::unique_ptr<DataLawyer> Make(DataLawyerOptions options = {}) {
    auto dl = std::make_unique<DataLawyer>(
        &db_, UsageLog::WithStandardGenerators(),
        std::make_unique<ManualClock>(0, 10), options);
    for (const auto& [name, sql] : PaperPolicies::All()) {
      EXPECT_TRUE(dl->AddPolicy(name, sql).ok());
    }
    return dl;
  }

  static PolicyStats StatsOf(const DataLawyer& dl, const std::string& name) {
    for (const PolicyStats& s : dl.PolicyReport()) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "no policy " << name;
    return PolicyStats{};
  }

  Database db_;
};

// P1-P6 under the defaults, uid 1, steady state: every verdict comes from
// state, and no partial statement over L ∪ Δ runs. P2-P6 each take one
// increment check at round 1 (the Users row of uid 1 joins), then their
// state answers once their relations are generated.
TEST_F(InterleavedStateTest, SteadyStateRunsNoPartialsForStateBackedPolicies) {
  DataLawyerOptions options;
  options.enable_tracing = true;
  auto dl = Make(options);
  QueryContext ctx;
  ctx.uid = 1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  }
  dl->ResetPolicyStats();
  Tracer::Global().Clear();

  size_t checks = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok()) << "query " << i;
    const ExecutionStats& stats = dl->last_stats();
    EXPECT_LE(stats.policies_evaluated, 6u) << "query " << i;
    EXPECT_EQ(stats.incremental_hits, stats.policies_evaluated)
        << "query " << i;
    EXPECT_EQ(stats.increment_checks, 5u) << "query " << i;
    // uid 1's Users row joins into every policy: none is answered early.
    EXPECT_EQ(stats.policies_pruned_early, 0u) << "query " << i;
    checks += stats.increment_checks;
  }

  size_t partial_spans = 0;
  size_t check_spans = 0;
  for (const TraceEvent& e : Tracer::Global().Snapshot()) {
    if (e.name.rfind("policy.partial:", 0) == 0) ++partial_spans;
    if (e.name.rfind("policy.increment_check:", 0) == 0) ++check_spans;
  }
  EXPECT_EQ(partial_spans, 0u);
  EXPECT_EQ(check_spans, checks);

  // The per-policy columns agree: no partial ran, none pruned.
  Result<QueryResult> rows = dl->QueryUsageLog(
      "SELECT policy, partials_run, partials_pruned FROM dl_policy_stats");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->NumRows(), 6u);
  for (const Row& row : rows->rows) {
    EXPECT_EQ(row[1].AsInt64(), 0) << row[0].ToString();
    EXPECT_EQ(row[2].AsInt64(), 0) << row[0].ToString();
  }
}

// uid 0 against the uid-1 policies, with uid-1 history in the log: the
// Users row of uid 0 joins into none of P2-P6, so their states answer at
// round 1, and neither Schema nor Provenance is generated for checking.
TEST_F(InterleavedStateTest, OutOfScopeUserIsAnsweredAtRoundOne) {
  auto dl = Make();
  for (int i = 0; i < 6; ++i) {
    QueryContext ctx;
    ctx.uid = i % 2;
    ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  }
  QueryContext ctx;
  ctx.uid = 0;
  // A probe stops after the checks, so what it generated was for checking.
  ASSERT_TRUE(dl->WouldAllow(PaperQueries::W1(), ctx).ok());
  const ExecutionStats& probe = dl->last_stats();
  EXPECT_EQ(probe.logs_generated, 1u);  // users only
  EXPECT_EQ(probe.incremental_hits, 6u);
  EXPECT_EQ(probe.policies_evaluated, 6u);
  EXPECT_EQ(probe.policies_pruned_early, 5u);
  EXPECT_EQ(probe.increment_checks, 5u);

  dl->ResetPolicyStats();
  ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  const ExecutionStats& stats = dl->last_stats();
  EXPECT_EQ(stats.incremental_hits, 6u);
  EXPECT_EQ(stats.policies_pruned_early, 5u);
  for (const PolicyStats& s : dl->PolicyReport()) {
    EXPECT_EQ(s.partials_run, 0u) << s.name;
    EXPECT_EQ(s.incremental_hits, 1u) << s.name;
    EXPECT_EQ(s.prunes, s.name == "p1" ? 0u : 1u) << s.name;
  }
}

// Flipping P1's `groups` table every other query invalidates its state
// faster than the rebuild cooldown allows. A query whose state is not
// ready runs P1's partials (and its full plan); one whose state is ready
// runs none. Verdicts match the NoOpt() reference throughout. Compaction
// is off: it marks against `groups` as it is at the mark, so a later
// INSERT can make a deleted log row matter again, and NoOpt() keeps them
// all.
TEST_F(InterleavedStateTest, GroupsFlipFallsBackToPartialsWithSameVerdicts) {
  DataLawyerOptions options;
  options.enable_log_compaction = false;
  options.enable_preemptive_compaction = false;
  auto dl = std::make_unique<DataLawyer>(
      &db_, UsageLog::WithStandardGenerators(),
      std::make_unique<ManualClock>(0, 10), options);
  auto reference = std::make_unique<DataLawyer>(
      &db_, UsageLog::WithStandardGenerators(),
      std::make_unique<ManualClock>(0, 10), DataLawyerOptions::NoOpt());
  // Threshold 1: uids 1 and 2 in group X within the window violate P1.
  std::vector<std::pair<std::string, std::string>> policies =
      PaperPolicies::All();
  policies[0].second = PaperPolicies::P1(200, "X", 1);
  for (const auto& [name, sql] : policies) {
    ASSERT_TRUE(dl->AddPolicy(name, sql).ok());
    ASSERT_TRUE(reference->AddPolicy(name, sql).ok());
  }

  size_t ready = 0, not_ready = 0, rejections = 0;
  for (int i = 0; i < 40; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    // One instance runs the writes; both read the shared database.
    const char* write = i % 2 == 0
                            ? "INSERT INTO groups VALUES (2, 'X')"
                            : "DELETE FROM groups WHERE uid = 2 AND gid = 'X'";
    ASSERT_TRUE(dl->Execute(write, QueryContext{}).ok());
    PolicyStats before = StatsOf(*dl, "p1");
    QueryContext ctx;
    ctx.uid = i % 3;
    Result<QueryResult> got = dl->Execute(PaperQueries::W1(), ctx);
    Result<QueryResult> want = reference->Execute(PaperQueries::W1(), ctx);
    ASSERT_EQ(got.ok(), want.ok())
        << got.status().ToString() << " vs " << want.status().ToString();
    if (!got.ok()) {
      ASSERT_TRUE(got.status().IsPolicyViolation());
      ++rejections;
      for (const std::string& m : dl->last_stats().violations) {
        const std::vector<std::string>& all =
            reference->last_stats().violations;
        EXPECT_NE(std::find(all.begin(), all.end(), m), all.end()) << m;
      }
    }
    PolicyStats after = StatsOf(*dl, "p1");
    if (after.incremental_hits > before.incremental_hits) {
      ++ready;
      EXPECT_EQ(after.partials_run, before.partials_run);
    }
    if (after.incremental_fallbacks > before.incremental_fallbacks) {
      ++not_ready;
      EXPECT_GT(after.partials_run, before.partials_run);
    }
  }
  EXPECT_GT(ready, 0u);
  EXPECT_GT(not_ready, 0u);
  EXPECT_GT(rejections, 0u);
}

}  // namespace
}  // namespace datalawyer
