#include <gtest/gtest.h>

#include "exec/engine.h"

namespace datalawyer {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&db_);
    ASSERT_TRUE(engine_
                    ->ExecuteScript(R"sql(
      CREATE TABLE big (k INT, v TEXT);
      INSERT INTO big VALUES (1, 'a'), (2, 'b'), (3, 'c');
      CREATE TABLE small (k INT, w DOUBLE);
      INSERT INTO small VALUES (1, 0.5), (2, 1.5);
    )sql")
                    .ok());
  }

  std::string Plan(const std::string& sql) {
    auto result = engine_->ExplainSql(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : "";
  }

  Database db_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(ExplainTest, FullScanWithoutIndex) {
  std::string plan = Plan("SELECT * FROM big WHERE big.k = 2");
  EXPECT_NE(plan.find("scan big (3 rows)"), std::string::npos);
  EXPECT_NE(plan.find("[full scan]"), std::string::npos);
  EXPECT_NE(plan.find("pushdown: (big.k = 2)"), std::string::npos);
  EXPECT_NE(plan.find("project 2 columns"), std::string::npos);
}

TEST_F(ExplainTest, IndexProbeAfterBuildIndex) {
  ASSERT_TRUE(db_.FindTable("big")->BuildIndex("k").ok());
  std::string plan = Plan("SELECT * FROM big WHERE big.k = 2");
  EXPECT_NE(plan.find("[index probe (big.k = 2)]"), std::string::npos);
  // Range predicates cannot use the hash index.
  std::string range = Plan("SELECT * FROM big WHERE big.k > 1");
  EXPECT_NE(range.find("[full scan]"), std::string::npos);
}

TEST_F(ExplainTest, JoinAlgorithms) {
  // With small listed first, FROM order and the size-ordered plan coincide,
  // so the expectations hold with the optimizer on or off.
  std::string hash =
      Plan("SELECT big.v FROM small, big WHERE big.k = small.k");
  EXPECT_NE(hash.find("hash join big (3 rows)"), std::string::npos);
  EXPECT_NE(hash.find("on (big.k = small.k)"), std::string::npos);

  std::string loop =
      Plan("SELECT big.v FROM small, big WHERE big.k < small.k");
  EXPECT_NE(loop.find("nested loop join big"), std::string::npos);
  EXPECT_NE(loop.find("residual: (big.k < small.k)"), std::string::npos);
}

TEST_F(ExplainTest, JoinReorderedSmallestFirst) {
  // big listed first, but the optimizer builds the join from the smaller
  // relation, so small (2 rows) becomes the outer scan.
  std::string plan =
      Plan("SELECT big.v FROM big, small WHERE big.k = small.k");
  EXPECT_NE(plan.find("scan small (2 rows)"), std::string::npos);
  EXPECT_NE(plan.find("hash join big (3 rows)"), std::string::npos);
}

TEST_F(ExplainTest, ConstantFoldingShowsProvablyEmpty) {
  std::string plan = Plan("SELECT big.v FROM big WHERE 1 = 2");
  EXPECT_NE(plan.find("[provably empty]"), std::string::npos);
  // A true constant folds away entirely.
  std::string kept = Plan("SELECT big.v FROM big WHERE 1 = 1");
  EXPECT_EQ(kept.find("pushdown"), std::string::npos);
}

TEST_F(ExplainTest, AggregateDistinctOnUnionStages) {
  std::string agg = Plan(
      "SELECT big.v, COUNT(*) FROM big GROUP BY big.v HAVING COUNT(*) > 1");
  EXPECT_NE(agg.find("aggregate [1 group keys, 2 aggregates]"),
            std::string::npos);
  EXPECT_NE(agg.find("having (count(*) > 1)"), std::string::npos);

  std::string don = Plan("SELECT DISTINCT ON (big.v) big.* FROM big");
  EXPECT_NE(don.find("distinct on (1 keys)"), std::string::npos);

  std::string uni =
      Plan("SELECT big.k FROM big UNION SELECT small.k FROM small");
  EXPECT_NE(uni.find("UNION"), std::string::npos);

  std::string sorted = Plan("SELECT big.k FROM big ORDER BY k LIMIT 2");
  EXPECT_NE(sorted.find("sort 1 keys"), std::string::npos);
  EXPECT_NE(sorted.find("limit 2"), std::string::npos);

  std::string constant = Plan("SELECT 1");
  EXPECT_NE(constant.find("constant row"), std::string::npos);
}

TEST_F(ExplainTest, SubqueryShown) {
  std::string plan = Plan(
      "SELECT s.n FROM (SELECT COUNT(*) AS n FROM big) s WHERE s.n > 1");
  EXPECT_NE(plan.find("scan subquery s"), std::string::npos);
}

TEST_F(ExplainTest, Errors) {
  EXPECT_FALSE(engine_->ExplainSql("DROP TABLE big").ok());
  EXPECT_FALSE(engine_->ExplainSql("SELECT zzz FROM big").ok());
}

}  // namespace
}  // namespace datalawyer
