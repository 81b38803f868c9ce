// Tests for the extensions beyond the paper's core: approximate policy
// guards, violation reports, periodic compaction, and usage-log queries.

#include <gtest/gtest.h>

#include "core/datalawyer.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadMimicData(&db_, MimicConfig::Tiny()).ok());
  }

  std::unique_ptr<DataLawyer> Make(DataLawyerOptions options = {}) {
    return std::make_unique<DataLawyer>(
        &db_, UsageLog::WithStandardGenerators(),
        std::make_unique<ManualClock>(0, 10), options);
  }

  Database db_;
};

// ---- approximate policy guards (§6 future work) ----

TEST_F(ExtensionsTest, GuardSkipsPreciseCheckWhenClean) {
  auto dl = Make();
  // Precise: P6-style provenance policy. Guard: "did uid 1 query at all?"
  // — Users-only, far cheaper, and a sound over-approximation.
  ASSERT_TRUE(dl->AddPolicyWithGuard(
                    "p6", PaperPolicies::P6(1, 300, 1000),
                    "SELECT DISTINCT 'suspicious' FROM users u, clock c "
                    "WHERE u.uid = 1 AND u.ts > c.ts - 300")
                  .ok());
  QueryContext other;
  other.uid = 0;
  ASSERT_TRUE(dl->Execute(PaperQueries::W1(), other).ok());
  // Guard empty for uid 0: the provenance log never materializes.
  EXPECT_FALSE(dl->usage_log()->IsGenerated("provenance"));
  EXPECT_GE(dl->last_stats().policies_pruned_early, 1u);

  QueryContext suspect;
  suspect.uid = 1;
  ASSERT_TRUE(dl->Execute(PaperQueries::W1(), suspect).ok());
  // Guard fires for uid 1: the precise check ran, and the d_patients
  // provenance row is retained by P6's witness for the sliding window.
  EXPECT_GT(dl->usage_log()->main_table("provenance")->NumRows(), 0u);
}

TEST_F(ExtensionsTest, GuardedPolicyStillRejectsViolations) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicyWithGuard(
                    "p3", PaperPolicies::P3(1, 50),
                    "SELECT DISTINCT 'suspicious' FROM users u, clock c "
                    "WHERE u.uid = 1 AND u.ts > c.ts - 20")
                  .ok());
  QueryContext ctx;
  ctx.uid = 1;
  auto result = dl->Execute("SELECT * FROM d_patients", ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsPolicyViolation());
  QueryContext clean;
  clean.uid = 0;
  EXPECT_TRUE(dl->Execute("SELECT * FROM d_patients", clean).ok());
}

TEST_F(ExtensionsTest, GuardRegistrationValidatesBothStatements) {
  auto dl = Make();
  EXPECT_FALSE(dl->AddPolicyWithGuard("bad", PaperPolicies::P6(),
                                      "SELECT nonsense FROM nowhere")
                   .ok());
  EXPECT_EQ(dl->NumPolicies(), 0u);  // rolled back
  EXPECT_FALSE(
      dl->AddPolicyWithGuard("bad2", "SELECT x FROM nope", "SELECT 1").ok());
  EXPECT_EQ(dl->NumPolicies(), 0u);
}

TEST_F(ExtensionsTest, GuardWorksUnderSerialStrategy) {
  DataLawyerOptions options;
  options.strategy = EvalStrategy::kSerial;
  auto dl = Make(options);
  ASSERT_TRUE(dl->AddPolicyWithGuard(
                    "p6", PaperPolicies::P6(1, 300, 1000),
                    "SELECT DISTINCT 's' FROM users u, clock c "
                    "WHERE u.uid = 1 AND u.ts > c.ts - 300")
                  .ok());
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  EXPECT_GE(dl->last_stats().policies_pruned_early, 1u);
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
}

// ---- violation reports (§6 debugging) ----

TEST_F(ExtensionsTest, ViolationReportNamesThePolicy) {
  auto dl = Make();
  for (const auto& [name, sql] : PaperPolicies::All()) {
    ASSERT_TRUE(dl->AddPolicy(name, sql).ok());
  }
  QueryContext ctx;
  ctx.uid = 1;
  auto result = dl->Execute(
      "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
      "WHERE o.subject_id = p.subject_id",
      ctx);
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(dl->last_violations().size(), 1u);
  const ViolationReport& report = dl->last_violations()[0];
  EXPECT_EQ(report.policy_name, "p2");
  EXPECT_FALSE(report.policy_sql.empty());
  ASSERT_EQ(report.messages.size(), 1u);
  EXPECT_NE(report.messages[0].find("P2 violated"), std::string::npos);

  // The report clears on the next compliant query.
  ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  EXPECT_TRUE(dl->last_violations().empty());
}

TEST_F(ExtensionsTest, UnionStrategyAttributesViolations) {
  DataLawyerOptions options = DataLawyerOptions::NoOpt();
  auto dl = Make(options);
  ASSERT_TRUE(dl->AddPolicy("p2", PaperPolicies::P2()).ok());
  ASSERT_TRUE(dl->AddPolicy("p3", PaperPolicies::P3(1, 50)).ok());
  QueryContext ctx;
  ctx.uid = 1;
  // Violates P3 only.
  auto result = dl->Execute("SELECT * FROM d_patients", ctx);
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(dl->last_violations().size(), 1u);
  EXPECT_EQ(dl->last_violations()[0].policy_name, "p3");
}

// ---- periodic compaction (§5.2) ----

TEST_F(ExtensionsTest, PeriodicCompactionStillBoundsTheLog) {
  DataLawyerOptions options;
  options.compaction_period = 10;
  auto dl = Make(options);
  ASSERT_TRUE(dl->AddPolicy("p6", PaperPolicies::P6(1, 300, 1000)).ok());
  QueryContext ctx;
  ctx.uid = 1;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  }
  // Window covers 30 queries; with lazy pruning the log may briefly exceed
  // it by up to one period, never more.
  EXPECT_LE(dl->usage_log()->main_table("provenance")->NumRows(), 45u);
  EXPECT_GT(dl->usage_log()->main_table("provenance")->NumRows(), 10u);
}

TEST_F(ExtensionsTest, PeriodicCompactionMatchesEagerVerdicts) {
  DataLawyerOptions eager;
  DataLawyerOptions lazy;
  lazy.compaction_period = 7;
  auto a = Make(eager);
  auto b = Make(lazy);
  for (auto* dl : {a.get(), b.get()}) {
    ASSERT_TRUE(dl->AddPolicy("p6", PaperPolicies::P6(1, 300, 25)).ok());
    ASSERT_TRUE(
        dl->AddPolicy("rate", PaperPolicies::RateLimitForUser(1, 400, 20))
            .ok());
  }
  QueryContext ctx;
  ctx.uid = 1;
  int disagreements = 0, rejections = 0;
  for (int i = 0; i < 50; ++i) {
    bool ra = a->Execute(PaperQueries::W1(), ctx).ok();
    bool rb = b->Execute(PaperQueries::W1(), ctx).ok();
    if (ra != rb) ++disagreements;
    if (!ra) ++rejections;
  }
  EXPECT_EQ(disagreements, 0);
  EXPECT_GT(rejections, 0);
}

// ---- asynchronous compaction (§5.1's multi-threaded remark) ----

TEST_F(ExtensionsTest, AsyncCompactionMatchesSyncVerdictsAndLog) {
  DataLawyerOptions sync_options;
  DataLawyerOptions async_options;
  async_options.async_compaction = true;
  auto sync_dl = Make(sync_options);
  auto async_dl = Make(async_options);
  for (auto* dl : {sync_dl.get(), async_dl.get()}) {
    ASSERT_TRUE(dl->AddPolicy("p6", PaperPolicies::P6(1, 300, 28)).ok());
    ASSERT_TRUE(
        dl->AddPolicy("rate", PaperPolicies::RateLimitForUser(1, 400, 25))
            .ok());
  }
  QueryContext ctx;
  ctx.uid = 1;
  int rejections = 0;
  for (int i = 0; i < 60; ++i) {
    bool a = sync_dl->Execute(PaperQueries::W1(), ctx).ok();
    bool b = async_dl->Execute(PaperQueries::W1(), ctx).ok();
    ASSERT_EQ(a, b) << "step " << i;
    if (!a) ++rejections;
  }
  EXPECT_GT(rejections, 0);

  // After draining the worker, both logs hold identical row counts.
  ASSERT_TRUE(async_dl->Flush().ok());
  for (const char* rel : {"users", "provenance"}) {
    EXPECT_EQ(async_dl->usage_log()->main_table(rel)->NumRows(),
              sync_dl->usage_log()->main_table(rel)->NumRows())
        << rel;
  }
  // The completed compaction's stats are retrievable.
  EXPECT_GE(async_dl->last_compaction_stats().mark_ms, 0.0);
}

TEST_F(ExtensionsTest, AsyncCompactionKeepsUserLatencyFree) {
  DataLawyerOptions options;
  options.async_compaction = true;
  auto dl = Make(options);
  ASSERT_TRUE(dl->AddPolicy("p6", PaperPolicies::P6(1, 300, 1000)).ok());
  QueryContext ctx;
  ctx.uid = 1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
    // The per-query stats never include compaction time in async mode.
    EXPECT_EQ(dl->last_stats().compact_mark_ms, 0.0);
  }
  ASSERT_TRUE(dl->Flush().ok());
}

TEST_F(ExtensionsTest, PrepareWaitsForAsyncCompaction) {
  DataLawyerOptions options;
  options.async_compaction = true;
  auto dl = Make(options);
  for (const auto& [name, sql] : PaperPolicies::All()) {
    ASSERT_TRUE(dl->AddPolicy(name, sql).ok());
  }
  QueryContext ctx;
  ctx.uid = 1;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok()) << "step " << i;
    // The background compaction this query submitted reads the prepared
    // witness bodies, their cached plans, and the log. Re-preparing frees
    // or reconfigures all of them, so it first waits for the worker —
    // whose stats are then those of this query's compaction.
    ASSERT_TRUE(dl->AddPolicy("rate" + std::to_string(i),
                              PaperPolicies::RateLimitForUser(2))
                    .ok());
    ASSERT_TRUE(dl->Prepare().ok());
    EXPECT_GT(dl->last_compaction_stats().rows_inserted, 0u) << "step " << i;
    EXPECT_EQ(dl->usage_log()->delta_table("users")->NumRows(), 0u);
  }
  ASSERT_TRUE(dl->Flush().ok());
}

// ---- a failed query leaves no staged increment behind ----

TEST_F(ExtensionsTest, FailedQueryDiscardsItsStagedIncrement) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("boom",
                            "SELECT DISTINCT 'boom' FROM users u, clock c "
                            "WHERE u.ts = c.ts AND 1 / (u.uid - 5) = 7")
                  .ok());
  QueryContext five;
  five.uid = 5;
  auto failed = dl->Execute(PaperQueries::W1(), five);
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(failed.status().IsPolicyViolation());
  EXPECT_NE(failed.status().message().find("division by zero"),
            std::string::npos)
      << failed.status().ToString();

  // The next statement generates and checks its own increment; uid 5's
  // stale row is gone.
  QueryContext one;
  one.uid = 1;
  auto next = dl->Execute(PaperQueries::W1(), one);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_GE(dl->last_stats().log_rows_staged, 1u);
}

// ---- footnote 7: policies only see history from their registration ----

TEST_F(ExtensionsTest, LateAddedPolicyIgnoresOlderHistory) {
  auto dl = Make();
  // An unrelated policy keeps the Users log populated from the start.
  ASSERT_TRUE(
      dl->AddPolicy("keepalive", PaperPolicies::RateLimitForUser(1, 100000, 50))
          .ok());
  QueryContext ctx;
  ctx.uid = 1;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  }
  ASSERT_EQ(dl->usage_log()->main_table("users")->NumRows(), 6u);

  // Register a strict limit now: 3 queries per huge window. The 6 earlier
  // queries must not count (footnote 7), so 3 more are admitted.
  ASSERT_TRUE(
      dl->AddPolicy("strict", PaperPolicies::RateLimitForUser(1, 100000, 3))
          .ok());
  int admitted = 0;
  for (int i = 0; i < 5; ++i) {
    if (dl->Execute(PaperQueries::W1(), ctx).ok()) ++admitted;
  }
  EXPECT_EQ(admitted, 3);
}

TEST_F(ExtensionsTest, HistoryRestrictionAppearsInActivePolicySql) {
  auto dl = Make();
  for (int i = 0; i < 4; ++i) dl->clock()->Tick();  // now = 40
  ASSERT_TRUE(
      dl->AddPolicy("late", PaperPolicies::RateLimitForUser(1, 500, 3)).ok());
  ASSERT_TRUE(dl->Prepare().ok());
  ASSERT_EQ(dl->active_policies().size(), 1u);
  EXPECT_NE(dl->active_policies()[0].sql.find("(u.ts > 40)"),
            std::string::npos)
      << dl->active_policies()[0].sql;
}

// ---- WouldAllow dry runs ----

TEST_F(ExtensionsTest, WouldAllowPredictsWithoutSideEffects) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p3", PaperPolicies::P3(1, 50)).ok());
  QueryContext ctx;
  ctx.uid = 1;

  int64_t before = dl->clock()->Now();
  EXPECT_TRUE(dl->WouldAllow(PaperQueries::W1(), ctx).ok());
  Status rejected = dl->WouldAllow("SELECT * FROM d_patients", ctx);
  EXPECT_TRUE(rejected.IsPolicyViolation());
  ASSERT_EQ(dl->last_violations().size(), 1u);
  EXPECT_EQ(dl->last_violations()[0].policy_name, "p3");

  // No side effects: clock unchanged, log untouched.
  EXPECT_EQ(dl->clock()->Now(), before);
  EXPECT_EQ(dl->usage_log()->main_table("users")->NumRows(), 0u);
  EXPECT_EQ(dl->usage_log()->delta_table("users")->NumRows(), 0u);

  // The predictions match what Execute then does.
  EXPECT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  EXPECT_FALSE(dl->Execute("SELECT * FROM d_patients", ctx).ok());
}

TEST_F(ExtensionsTest, WouldAllowSeesAccumulatedHistory) {
  auto dl = Make();
  ASSERT_TRUE(
      dl->AddPolicy("rate", PaperPolicies::RateLimitForUser(1, 1000, 2)).ok());
  QueryContext ctx;
  ctx.uid = 1;
  EXPECT_TRUE(dl->WouldAllow(PaperQueries::W1(), ctx).ok());
  ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  // A third query would exceed the limit; the probe predicts it.
  EXPECT_TRUE(dl->WouldAllow(PaperQueries::W1(), ctx).IsPolicyViolation());
  // Probing did not consume anything: a different user is still fine.
  QueryContext other;
  other.uid = 2;
  EXPECT_TRUE(dl->WouldAllow(PaperQueries::W1(), other).ok());
  EXPECT_FALSE(dl->Execute(PaperQueries::W1(), ctx).ok());
}

TEST_F(ExtensionsTest, WouldAllowHandlesDdlAndBadSql) {
  auto dl = Make();
  ASSERT_TRUE(dl->AddPolicy("p2", PaperPolicies::P2()).ok());
  QueryContext ctx;
  EXPECT_TRUE(dl->WouldAllow("CREATE TABLE z (a INT)", ctx).ok());
  EXPECT_FALSE(db_.HasTable("z"));  // probe does not execute DDL either
  Status bad = dl->WouldAllow("SELECT nope FROM nowhere", ctx);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.IsPolicyViolation());
}

// ---- usage-log queries ----

TEST_F(ExtensionsTest, QueryUsageLogSeesHistoryAndClock) {
  auto dl = Make();
  // A rate limit on uid 3 keeps that user's windowed history in the log.
  ASSERT_TRUE(
      dl->AddPolicy("rate", PaperPolicies::RateLimitForUser(3, 1000, 50))
          .ok());
  ASSERT_TRUE(dl->AddPolicy("p6", PaperPolicies::P6()).ok());
  QueryContext ctx;
  ctx.uid = 3;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(dl->Execute(PaperQueries::W1(), ctx).ok());
  }
  auto count = dl->QueryUsageLog("SELECT COUNT(*) FROM users");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0], Value(int64_t{4}));
  auto clock = dl->QueryUsageLog("SELECT c.ts FROM clock c");
  ASSERT_TRUE(clock.ok());
  EXPECT_EQ(clock->rows[0][0], Value(int64_t{40}));
  // Joining log and database relations works.
  auto joined = dl->QueryUsageLog(
      "SELECT COUNT(*) FROM provenance p, d_patients d "
      "WHERE p.itid = d.subject_id");
  ASSERT_TRUE(joined.ok());
  // Writes are rejected.
  EXPECT_FALSE(dl->QueryUsageLog("DELETE FROM users").ok());
}

}  // namespace
}  // namespace datalawyer
