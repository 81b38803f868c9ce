#include <gtest/gtest.h>

#include "policy/partial_policy.h"
#include "sql/parser.h"
#include "workload/paper_policies.h"

namespace datalawyer {
namespace {

class PartialPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override { log_ = UsageLog::WithStandardGenerators(); }

  std::string Partial(const std::string& sql,
                      const std::set<std::string>& available) {
    auto stmt = Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    return BuildPartialPolicy(**stmt, *log_, available)->ToString();
  }

  std::unique_ptr<UsageLog> log_;
};

TEST_F(PartialPolicyTest, PaperExample45) {
  // P2b reduced to S = {} and S = {users}: the P2d / P2c ladder.
  std::string p2b =
      "SELECT DISTINCT 1 FROM users u, schema s, groups g, clock c "
      "WHERE u.ts = s.ts AND s.irid = 'patients' AND u.uid = g.uid "
      "AND g.gid = 'Student' AND u.ts > c.ts - 1209600 "
      "HAVING COUNT(DISTINCT u.uid) > 10";

  // S = {}: only Groups and Clock remain; HAVING (references u) dropped.
  std::string p2d = Partial(p2b, {});
  EXPECT_EQ(p2d.find("users"), std::string::npos);
  EXPECT_EQ(p2d.find("schema"), std::string::npos);
  EXPECT_NE(p2d.find("groups"), std::string::npos);
  EXPECT_NE(p2d.find("clock"), std::string::npos);
  EXPECT_NE(p2d.find("(g.gid = 'Student')"), std::string::npos);
  EXPECT_EQ(p2d.find("HAVING"), std::string::npos);

  // S = {users}: schema dropped; user-side predicates and HAVING kept.
  std::string p2c = Partial(p2b, {"users"});
  EXPECT_NE(p2c.find("users"), std::string::npos);
  EXPECT_EQ(p2c.find("schema"), std::string::npos);
  EXPECT_NE(p2c.find("(u.uid = g.uid)"), std::string::npos);
  EXPECT_NE(p2c.find("HAVING"), std::string::npos);
  EXPECT_NE(p2c.find("count(DISTINCT u.uid)"), std::string::npos);
  EXPECT_EQ(p2c.find("s.irid"), std::string::npos);
  EXPECT_EQ(p2c.find("(u.ts = s.ts)"), std::string::npos);

  // S covers everything: unchanged.
  std::string full = Partial(p2b, {"users", "schema"});
  EXPECT_NE(full.find("schema"), std::string::npos);
  EXPECT_NE(full.find("(u.ts = s.ts)"), std::string::npos);
}

TEST_F(PartialPolicyTest, SelectItemsNeverEmpty) {
  std::string partial = Partial(
      "SELECT DISTINCT p.itid FROM provenance p WHERE p.irid = 'x'", {});
  // Everything referenced p; a probe literal takes the select list's place.
  EXPECT_NE(partial.find("SELECT DISTINCT 1 AS probe"), std::string::npos);
  EXPECT_EQ(partial.find("provenance"), std::string::npos);
}

TEST_F(PartialPolicyTest, GroupByAndDistinctOnPruned) {
  std::string partial = Partial(
      "SELECT DISTINCT ON (p.ts, u.uid) u.uid FROM users u, provenance p "
      "WHERE u.ts = p.ts GROUP BY p.ts, u.uid",
      {"users"});
  EXPECT_EQ(partial.find("p.ts"), std::string::npos);
  EXPECT_NE(partial.find("u.uid"), std::string::npos);

  // All DISTINCT ON keys removed → plain DISTINCT.
  std::string degraded = Partial(
      "SELECT DISTINCT ON (p.ts) u.uid FROM users u, provenance p "
      "WHERE u.ts = p.ts",
      {"users"});
  EXPECT_NE(degraded.find("SELECT DISTINCT "), std::string::npos);
  EXPECT_EQ(degraded.find("DISTINCT ON"), std::string::npos);
}

TEST_F(PartialPolicyTest, SubqueryWithUnavailableLogDroppedWhole) {
  std::string partial = Partial(
      "SELECT DISTINCT 'e' FROM users u, "
      "(SELECT p.ts AS ts FROM provenance p) q WHERE u.ts = q.ts",
      {"users"});
  EXPECT_EQ(partial.find("provenance"), std::string::npos);
  EXPECT_EQ(partial.find("q.ts"), std::string::npos);
  EXPECT_NE(partial.find("users"), std::string::npos);

  // With provenance available the subquery survives.
  std::string kept = Partial(
      "SELECT DISTINCT 'e' FROM users u, "
      "(SELECT p.ts AS ts FROM provenance p) q WHERE u.ts = q.ts",
      {"users", "provenance"});
  EXPECT_NE(kept.find("provenance"), std::string::npos);
}

TEST_F(PartialPolicyTest, UnqualifiedRefsDroppedConservatively) {
  // `uid` is unqualified; once anything is removed we cannot attribute it,
  // so the conjunct is dropped (enlarging the result is sound).
  std::string partial = Partial(
      "SELECT DISTINCT 'e' FROM users u, provenance p "
      "WHERE u.ts = p.ts AND uid = 5",
      {});
  EXPECT_EQ(partial.find("uid"), std::string::npos);
}

TEST_F(PartialPolicyTest, RowCountingAggregatesDroppedWithAnyFromItem) {
  // COUNT(*) names no alias, but it counts the rows of the whole FROM: over
  // the emptied FROM it would count one row, leave the partial empty, and
  // prune a policy the full statement rejects.
  const std::string cap =
      "SELECT DISTINCT 'm' FROM users u WHERE u.uid = 1 "
      "HAVING COUNT(*) > 5";
  std::string emptied = Partial(cap, {});
  EXPECT_EQ(emptied.find("users"), std::string::npos) << emptied;
  EXPECT_EQ(emptied.find("HAVING"), std::string::npos) << emptied;
  EXPECT_EQ(emptied.find("count"), std::string::npos) << emptied;
  EXPECT_NE(emptied.find("'m'"), std::string::npos) << emptied;
  EXPECT_NE(Partial(cap, {"users"}).find("HAVING (count(*) > 5)"),
            std::string::npos);

  // A non-distinct aggregate over a surviving alias counts join rows too,
  // in select items as in HAVING; a distinct count keeps its HAVING.
  std::string counted = Partial(
      "SELECT DISTINCT 'm', SUM(u.uid) FROM users u, schema s "
      "WHERE u.ts = s.ts HAVING COUNT(u.uid) > 5",
      {"users"});
  EXPECT_EQ(counted.find("HAVING"), std::string::npos) << counted;
  EXPECT_EQ(counted.find("sum"), std::string::npos) << counted;
  std::string distinct = Partial(
      "SELECT DISTINCT 'm' FROM users u, schema s "
      "WHERE u.ts = s.ts HAVING COUNT(DISTINCT u.uid) > 5",
      {"users"});
  EXPECT_NE(distinct.find("HAVING (count(DISTINCT u.uid) > 5)"),
            std::string::npos)
      << distinct;
}

TEST_F(PartialPolicyTest, UnionMembersRewrittenIndependently) {
  std::string partial = Partial(
      "SELECT DISTINCT 'a' FROM users u WHERE u.uid = 1 "
      "UNION SELECT DISTINCT 'b' FROM provenance p WHERE p.irid = 'x'",
      {"users"});
  EXPECT_NE(partial.find("'a'"), std::string::npos);
  EXPECT_NE(partial.find("(u.uid = 1)"), std::string::npos);
  EXPECT_EQ(partial.find("provenance"), std::string::npos);
  EXPECT_NE(partial.find("UNION"), std::string::npos);
}

TEST_F(PartialPolicyTest, NoChangeWhenAllAvailable) {
  for (const auto& [name, sql] :
       std::vector<std::pair<std::string, std::string>>{
           {"p1", PaperPolicies::P1()},
           {"p5", PaperPolicies::P5()},
           {"p6", PaperPolicies::P6()}}) {
    auto stmt = Parser::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok());
    std::string partial =
        BuildPartialPolicy(**stmt, *log_, {"users", "schema", "provenance"})
            ->ToString();
    EXPECT_EQ(partial, (*stmt)->ToString()) << name;
  }
}

}  // namespace
}  // namespace datalawyer
