// End-to-end coverage for UNION policies — one registered policy whose
// members guard different clauses — through analysis, interleaved
// evaluation, witnesses, and compaction.

#include <gtest/gtest.h>

#include "core/datalawyer.h"
#include "workload/mimic.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

class UnionPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadMimicData(&db_, MimicConfig::Tiny()).ok());
    dl_ = std::make_unique<DataLawyer>(&db_,
                                       UsageLog::WithStandardGenerators(),
                                       std::make_unique<ManualClock>(0, 10),
                                       DataLawyerOptions{});
  }

  bool Allowed(int64_t uid, const std::string& sql) {
    QueryContext ctx;
    ctx.uid = uid;
    auto result = dl_->Execute(sql, ctx);
    EXPECT_TRUE(result.ok() || result.status().IsPolicyViolation())
        << result.status().ToString();
    return result.ok();
  }

  Database db_;
  std::unique_ptr<DataLawyer> dl_;
};

TEST_F(UnionPolicyTest, EitherMemberTriggersRejection) {
  // Two vendor clauses in one policy: poe_order may not be joined with
  // d_patients, and chartevents may never be aggregated by uid 1.
  ASSERT_TRUE(dl_->AddPolicy("combined", R"sql(
    SELECT DISTINCT 'clause A: poe_order x d_patients prohibited'
    FROM schema s1, schema s2
    WHERE s1.ts = s2.ts AND s1.irid = 'poe_order'
      AND s2.irid = 'd_patients'
    UNION
    SELECT DISTINCT 'clause B: no aggregates over chartevents for uid 1'
    FROM users u, schema s
    WHERE u.ts = s.ts AND u.uid = 1 AND s.irid = 'chartevents'
      AND s.agg = TRUE
  )sql")
                  .ok());

  EXPECT_TRUE(Allowed(1, PaperQueries::W1()));
  // Clause A fires regardless of user.
  EXPECT_FALSE(Allowed(0,
                       "SELECT o.medication, p.sex FROM poe_order o, "
                       "d_patients p WHERE o.subject_id = p.subject_id"));
  // Clause B fires only for uid 1.
  std::string agg =
      "SELECT c.subject_id, COUNT(*) FROM chartevents c "
      "WHERE c.subject_id < 10 GROUP BY c.subject_id";
  EXPECT_FALSE(Allowed(1, agg));
  EXPECT_TRUE(Allowed(0, agg));
  // The violation message names the clause that fired.
  QueryContext ctx;
  ctx.uid = 1;
  auto result = dl_->Execute(agg, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("clause B"), std::string::npos);
}

TEST_F(UnionPolicyTest, UnionPolicyIsTimeIndependentWhenMembersAre) {
  ASSERT_TRUE(dl_->AddPolicy("combined", R"sql(
    SELECT DISTINCT 'a' FROM schema s1, schema s2
    WHERE s1.ts = s2.ts AND s1.irid = 'poe_order' AND s2.irid = 'd_patients'
    UNION
    SELECT DISTINCT 'b' FROM schema s WHERE s.irid = 'groups'
  )sql")
                  .ok());
  ASSERT_TRUE(dl_->Prepare().ok());
  ASSERT_EQ(dl_->active_policies().size(), 1u);
  EXPECT_TRUE(dl_->active_policies()[0].time_independent);
  EXPECT_TRUE(dl_->active_policies()[0].monotone);

  // Time-independent union policy → nothing persists.
  QueryContext ctx;
  ctx.uid = 1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dl_->Execute(PaperQueries::W1(), ctx).ok());
  }
  EXPECT_EQ(dl_->usage_log()->main_table("schema")->NumRows(), 0u);
}

TEST_F(UnionPolicyTest, MixedWindowUnionCompactsPerMember) {
  // One windowed member + one time-independent member: the windowed
  // member's witness bounds the log.
  ASSERT_TRUE(dl_->AddPolicy("mixed", R"sql(
    SELECT DISTINCT 'rate' FROM users u, clock c
    WHERE u.uid = 1 AND u.ts > c.ts - 200
    HAVING COUNT(DISTINCT u.ts) > 50
    UNION
    SELECT DISTINCT 'join ban' FROM schema s1, schema s2
    WHERE s1.ts = s2.ts AND s1.irid = 'poe_order' AND s2.irid = 'd_patients'
  )sql")
                  .ok());
  QueryContext ctx;
  ctx.uid = 1;
  size_t max_users = 0;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(dl_->Execute(PaperQueries::W1(), ctx).ok());
    max_users =
        std::max(max_users, dl_->usage_log()->main_table("users")->NumRows());
  }
  // Window of 200 ticks at 10/query = at most ~20 live entries.
  EXPECT_LE(max_users, 25u);
  EXPECT_GT(max_users, 5u);
}

TEST_F(UnionPolicyTest, VerdictsMatchNoOptBaseline) {
  DataLawyer baseline(&db_, UsageLog::WithStandardGenerators(),
                      std::make_unique<ManualClock>(0, 10),
                      DataLawyerOptions::NoOpt());
  const char* policy = R"sql(
    SELECT DISTINCT 'w' FROM users u, clock c
    WHERE u.uid = 1 AND u.ts > c.ts - 300
    HAVING COUNT(DISTINCT u.ts) > 5
    UNION
    SELECT DISTINCT 'j' FROM schema s1, schema s2
    WHERE s1.ts = s2.ts AND s1.irid = 'poe_order'
      AND s2.irid != 'poe_order' AND s2.irid != 'poe_med'
  )sql";
  ASSERT_TRUE(dl_->AddPolicy("u", policy).ok());
  ASSERT_TRUE(baseline.AddPolicy("u", policy).ok());

  const char* queries[] = {
      "SELECT * FROM d_patients WHERE subject_id = 1",
      "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
      "WHERE o.subject_id = p.subject_id",
      "SELECT o.medication, m.dose FROM poe_order o, poe_med m "
      "WHERE o.order_id = m.order_id",
  };
  int rejections = 0;
  for (int i = 0; i < 30; ++i) {
    QueryContext ctx;
    ctx.uid = i % 2;
    const char* sql = queries[i % 3];
    bool a = dl_->Execute(sql, ctx).ok();
    bool b = baseline.Execute(sql, ctx).ok();
    ASSERT_EQ(a, b) << "step " << i;
    if (!a) ++rejections;
  }
  EXPECT_GT(rejections, 0);
}

// §4.3 improved partials dismiss a non-empty partial whose output does not
// depend on the current increment. A member that reads no generated log
// relation yet carries no lineage, so its partial never "depends" — the
// policy may only be dismissed once every log-reading member reads one.
TEST_F(UnionPolicyTest, ImprovedPartialWaitsForEveryMember) {
  DataLawyerOptions options;
  options.enable_improved_partial = true;
  options.strategy = EvalStrategy::kInterleaved;
  dl_->set_options(options);
  ASSERT_TRUE(dl_->AddPolicy("u", R"sql(
    SELECT DISTINCT 'uid 0 read chartevents' FROM users u, schema s
    WHERE u.ts = s.ts AND u.uid = 0 AND s.irid = 'chartevents'
    UNION
    SELECT DISTINCT 'over 100 d_patients tuples in one query'
    FROM provenance p WHERE p.irid = 'd_patients'
    GROUP BY p.ts HAVING COUNT(DISTINCT p.itid) > 100
  )sql")
                  .ok());
  QueryContext ctx;
  ctx.uid = 0;
  auto result = dl_->Execute("SELECT * FROM d_patients", ctx);
  EXPECT_EQ(result.status().ToString(),
            "PolicyViolation: over 100 d_patients tuples in one query");
}

}  // namespace
}  // namespace datalawyer
