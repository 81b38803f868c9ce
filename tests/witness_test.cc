#include <gtest/gtest.h>

#include <random>

#include "core/datalawyer.h"
#include "policy/witness.h"
#include "sql/parser.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

class WitnessBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override { log_ = UsageLog::WithStandardGenerators(); }

  WitnessSet Build(const std::string& sql) {
    auto stmt = Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    stmts_.push_back(std::move(stmt).value());
    WitnessBuilder builder(log_.get());
    auto result = builder.Build(*stmts_.back());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : WitnessSet{};
  }

  std::unique_ptr<UsageLog> log_;
  std::vector<std::unique_ptr<SelectStmt>> stmts_;
};

TEST_F(WitnessBuilderTest, PaperExample43_P2bUsersWitness) {
  // Example 4.3: P2b's witness for Users keeps windowed Student queries on
  // patients. Our P2b has HAVING → the Eq. (2) full-query witness.
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM users u, schema s, groups g, clock c "
      "WHERE u.ts = s.ts AND s.irid = 'patients' AND u.uid = g.uid "
      "AND g.gid = 'Student' AND u.ts > c.ts - 1209600 "
      "HAVING COUNT(DISTINCT u.uid) > 10");
  ASSERT_TRUE(set.per_relation.count("users"));
  const RelationWitness& users = set.per_relation.at("users");
  EXPECT_FALSE(users.full_fallback);
  ASSERT_EQ(users.queries.size(), 1u);
  std::string q = users.queries[0]->ToString();
  // SELECT DISTINCT u.* over u, its ts-neighborhood s, and groups.
  EXPECT_NE(q.find("SELECT DISTINCT u.*"), std::string::npos);
  EXPECT_NE(q.find("users u"), std::string::npos);
  EXPECT_NE(q.find("schema s"), std::string::npos);
  EXPECT_NE(q.find("groups g"), std::string::npos);
  EXPECT_EQ(q.find("clock"), std::string::npos);  // transformed away
  // The window u.ts > c.ts - W becomes dl_now.ts + 1 < u.ts + W.
  EXPECT_NE(q.find("dl_now"), std::string::npos);
  EXPECT_NE(q.find("((dl_now.ts + 1) < (u.ts + 1209600))"),
            std::string::npos);
  // Schema's witness exists symmetrically.
  ASSERT_TRUE(set.per_relation.count("schema"));
  std::string sq = set.per_relation.at("schema").queries[0]->ToString();
  EXPECT_NE(sq.find("SELECT DISTINCT s.*"), std::string::npos);
}

TEST_F(WitnessBuilderTest, PaperExample44_SelfJoinYieldsUnionOfOccurrences) {
  // P1_IND-style: self-join of Schema pinned to the current clock.
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM schema p1, schema p2, clock c "
      "WHERE p1.ts = c.ts AND p2.ts = c.ts AND p1.ts = p2.ts "
      "AND p1.irid = 'navteq' AND p2.irid != 'navteq'");
  ASSERT_TRUE(set.per_relation.count("schema"));
  const RelationWitness& witness = set.per_relation.at("schema");
  EXPECT_FALSE(witness.full_fallback);
  // One witness query per occurrence.
  ASSERT_EQ(witness.queries.size(), 2u);
  std::string q0 = witness.queries[0]->ToString();
  std::string q1 = witness.queries[1]->ToString();
  EXPECT_NE(q0.find("p1.*"), std::string::npos);
  EXPECT_NE(q1.find("p2.*"), std::string::npos);
  // Boolean aggregate-free policy → DISTINCT ON witnesses (Eq. 3).
  EXPECT_NE(q0.find("DISTINCT ON"), std::string::npos);
  // The clock equality became dl_now.ts + 1 <= p1.ts, false for every
  // current tuple — this witness retains nothing, as the paper notes.
  EXPECT_NE(q0.find("((dl_now.ts + 1) <= p1.ts)"), std::string::npos);
}

TEST_F(WitnessBuilderTest, NoClockNoHavingUsesDistinctOnJoinAttrs) {
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM users u, groups g "
      "WHERE u.uid = g.uid AND g.gid = 'X'");
  const RelationWitness& users = set.per_relation.at("users");
  ASSERT_EQ(users.queries.size(), 1u);
  std::string q = users.queries[0]->ToString();
  EXPECT_NE(q.find("DISTINCT ON (u.uid)"), std::string::npos);
  EXPECT_NE(q.find("(g.gid = 'X')"), std::string::npos);
}

TEST_F(WitnessBuilderTest, NoJoinAttrsFallsBackToConstantDistinctOn) {
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM users u WHERE u.uid = 7");
  std::string q = set.per_relation.at("users").queries[0]->ToString();
  // Any single satisfying tuple witnesses the policy.
  EXPECT_NE(q.find("DISTINCT ON (1)"), std::string::npos);
}

TEST_F(WitnessBuilderTest, NeighborhoodExcludesUnjoinedLogRelations) {
  // users and provenance do NOT join on ts here: each witness stands alone.
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM users u, provenance p "
      "WHERE u.uid = 1 AND p.irid = 'x'");
  std::string uq = set.per_relation.at("users").queries[0]->ToString();
  EXPECT_EQ(uq.find("provenance"), std::string::npos);
  std::string pq = set.per_relation.at("provenance").queries[0]->ToString();
  EXPECT_EQ(pq.find("users"), std::string::npos);
}

TEST_F(WitnessBuilderTest, NeighborhoodJoinedThroughTheClockIsJoinedDirectly) {
  // u and p share a ts only through the clock, whose conjuncts become
  // bounds: each witness states the equality the policy implies.
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM users u, provenance p, clock c "
      "WHERE u.ts = c.ts AND p.ts = c.ts AND u.uid = 1");
  std::string uq = set.per_relation.at("users").queries[0]->ToString();
  EXPECT_NE(uq.find("(u.ts = p.ts)"), std::string::npos) << uq;
  std::string pq = set.per_relation.at("provenance").queries[0]->ToString();
  EXPECT_NE(pq.find("(p.ts = u.ts)"), std::string::npos) << pq;
  // Joined directly, the witness adds nothing.
  set = Build(
      "SELECT DISTINCT 'e' FROM users u, provenance p, clock c "
      "WHERE u.ts = p.ts AND p.ts = c.ts AND u.uid = 1");
  uq = set.per_relation.at("users").queries[0]->ToString();
  EXPECT_EQ(uq.find("(u.ts = p.ts) AND (u.ts = p.ts)"), std::string::npos)
      << uq;
}

TEST_F(WitnessBuilderTest, ClockInequalityForcesFullFallback) {
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM users u, clock c WHERE u.ts != c.ts");
  EXPECT_TRUE(set.per_relation.at("users").full_fallback);
}

TEST_F(WitnessBuilderTest, UnsupportedClockShapeForcesFullFallback) {
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM users u, clock c WHERE u.ts > c.ts * 2");
  EXPECT_TRUE(set.per_relation.at("users").full_fallback);
}

TEST_F(WitnessBuilderTest, UnqualifiedColumnsForceFullFallback) {
  WitnessSet set = Build("SELECT DISTINCT 'e' FROM users u WHERE uid = 1");
  EXPECT_TRUE(set.per_relation.at("users").full_fallback);
}

TEST_F(WitnessBuilderTest, ClockArithmeticIsolation) {
  // u.ts > c.ts - W and W + c.ts <= u.ts exercise term motion both ways.
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM users u, clock c "
      "WHERE u.ts > c.ts - 100 AND 50 + c.ts <= u.ts AND u.uid = 1");
  const RelationWitness& users = set.per_relation.at("users");
  ASSERT_FALSE(users.full_fallback);
  std::string q = users.queries[0]->ToString();
  // c.ts < u.ts + 100 → dl_now+1 < u.ts + 100
  EXPECT_NE(q.find("((dl_now.ts + 1) < (u.ts + 100))"), std::string::npos);
  // 50 + c.ts <= u.ts ⇒ c.ts <= u.ts - 50 → dl_now+1 <= u.ts - 50
  EXPECT_NE(q.find("((dl_now.ts + 1) <= (u.ts - 50))"), std::string::npos);
}

TEST_F(WitnessBuilderTest, DroppedLowerBoundStillCountsAsJoinAttr) {
  // c.ts > u.ts - W is dropped by Lemma 4.3, but u.ts still lands in the
  // DISTINCT ON attributes (conservatively).
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM users u, clock c WHERE c.ts > u.ts - 100");
  const RelationWitness& users = set.per_relation.at("users");
  ASSERT_FALSE(users.full_fallback);
  std::string q = users.queries[0]->ToString();
  EXPECT_NE(q.find("DISTINCT ON (u.ts)"), std::string::npos);
  EXPECT_EQ(q.find("dl_now"), std::string::npos);  // predicate dropped
}

TEST_F(WitnessBuilderTest, SubqueriesCompactedSeparately) {
  WitnessSet set = Build(
      "SELECT DISTINCT 'e' FROM (SELECT p.itid AS itid FROM provenance p "
      "WHERE p.irid = 'd_patients') q, users u WHERE u.uid = 1");
  // The subquery contributes a provenance witness; the outer query a users
  // witness.
  ASSERT_TRUE(set.per_relation.count("provenance"));
  ASSERT_TRUE(set.per_relation.count("users"));
  std::string pq = set.per_relation.at("provenance").queries[0]->ToString();
  EXPECT_NE(pq.find("(p.irid = 'd_patients')"), std::string::npos);
}

TEST_F(WitnessBuilderTest, MergeFromUnionsQueriesAndFallbacks) {
  WitnessSet a = Build("SELECT DISTINCT 'e' FROM users u WHERE u.uid = 1");
  WitnessSet b = Build("SELECT DISTINCT 'e' FROM users u WHERE uid = 2");
  ASSERT_FALSE(a.per_relation.at("users").full_fallback);
  a.MergeFrom(std::move(b));
  EXPECT_TRUE(a.per_relation.at("users").full_fallback);
  EXPECT_EQ(a.per_relation.at("users").queries.size(), 1u);
}

// ---------------------------------------------------------------------------
// Soundness property: under any mix of time-dependent policies and any query
// stream, the compacting system must produce exactly the same accept/reject
// verdicts as the non-compacting baseline — now and for every future query
// (absolute witnesses, Def. 4.1).
// ---------------------------------------------------------------------------

struct SoundnessCase {
  uint64_t seed;
  int rate_window;
  int rate_threshold;
};

class CompactionSoundnessTest
    : public ::testing::TestWithParam<SoundnessCase> {};

TEST_P(CompactionSoundnessTest, VerdictsMatchNonCompactingBaseline) {
  const SoundnessCase& param = GetParam();
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());

  DataLawyerOptions compacting = DataLawyerOptions::AllOptimizations();
  DataLawyerOptions baseline = DataLawyerOptions::AllOptimizations();
  baseline.enable_log_compaction = false;

  auto make = [&](DataLawyerOptions options) {
    auto dl = std::make_unique<DataLawyer>(
        &db, UsageLog::WithStandardGenerators(),
        std::make_unique<ManualClock>(0, 10), options);
    EXPECT_TRUE(dl->AddPolicy("p1", PaperPolicies::P1(200, "X", 1)).ok());
    EXPECT_TRUE(dl->AddPolicy("p5", PaperPolicies::P5(1, 500, 150)).ok());
    EXPECT_TRUE(dl->AddPolicy("p6", PaperPolicies::P6(1, 300, 40)).ok());
    EXPECT_TRUE(dl->AddPolicy("rate",
                              PaperPolicies::RateLimitForUser(
                                  2, param.rate_window, param.rate_threshold))
                    .ok());
    return dl;
  };
  auto with_compaction = make(compacting);
  auto without_compaction = make(baseline);

  std::mt19937_64 rng(param.seed);
  auto queries = PaperQueries::All();
  int rejections = 0;
  for (int step = 0; step < 60; ++step) {
    QueryContext ctx;
    ctx.uid = int64_t(rng() % 3);
    const std::string& sql = queries[rng() % queries.size()].second;
    auto a = with_compaction->Execute(sql, ctx);
    auto b = without_compaction->Execute(sql, ctx);
    ASSERT_EQ(a.ok(), b.ok())
        << "step " << step << " uid " << ctx.uid << "\n  compacted: "
        << a.status().ToString() << "\n  baseline:  "
        << b.status().ToString();
    if (!a.ok()) {
      ++rejections;
      EXPECT_TRUE(a.status().IsPolicyViolation());
    }
  }
  // The scenario is tuned so both paths (accept and reject) are exercised.
  EXPECT_GT(rejections, 0);

  // The compacted log must actually be smaller than the full history.
  size_t compacted_rows = 0, full_rows = 0;
  for (const char* rel : {"users", "schema", "provenance"}) {
    compacted_rows += with_compaction->usage_log()->main_table(rel)->NumRows();
    full_rows += without_compaction->usage_log()->main_table(rel)->NumRows();
  }
  EXPECT_LT(compacted_rows, full_rows);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CompactionSoundnessTest,
    ::testing::Values(SoundnessCase{1, 400, 5}, SoundnessCase{2, 400, 5},
                      SoundnessCase{3, 200, 3}, SoundnessCase{4, 600, 8},
                      SoundnessCase{5, 300, 4}, SoundnessCase{99, 500, 6}));

}  // namespace
}  // namespace datalawyer
