#include <gtest/gtest.h>

#include "analysis/binder.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "sql/parser.h"

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

// EXPLAIN and EXPLAIN ANALYZE print the access token of one shared
// decision: for every narrowed scan the same "[index probe ...]" or
// "[range scan ...]" token, naming every conjunct that shaped the probed
// interval in conjunct order.
class ExplainAnalyzeAgreementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&db_);
    ASSERT_TRUE(engine_
                    ->ExecuteScript("CREATE TABLE t (k INT, g INT);"
                                    "CREATE TABLE c (ts INT);"
                                    "INSERT INTO c VALUES (50);")
                    .ok());
    t_ = db_.FindTable("t");
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(t_->Append({Value(i), Value(i % 3)}).ok());
    }
    ASSERT_TRUE(t_->BuildOrderedIndex("k").ok());
    ASSERT_TRUE(t_->BuildIndex("g").ok());
  }

  /// The narrowing tokens of a rendered plan, in line order.
  static std::vector<std::string> Tokens(const std::string& text) {
    std::vector<std::string> tokens;
    for (const char* kind : {"[index probe ", "[range scan "}) {
      for (size_t pos = text.find(kind); pos != std::string::npos;
           pos = text.find(kind, pos + 1)) {
        tokens.push_back(text.substr(pos, text.find(']', pos) + 1 - pos));
      }
    }
    return tokens;
  }

  static std::string Text(const QueryResult& result) {
    std::string out;
    for (const Row& row : result.rows) out += row[0].AsString() + "\n";
    return out;
  }

  /// Asserts both renderings of `sql` narrow with exactly `token`.
  void ExpectToken(const std::string& sql, const std::string& token) {
    auto plan = engine_->ExecuteSql("EXPLAIN " + sql);
    auto analyzed = engine_->ExecuteSql("EXPLAIN ANALYZE " + sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_EQ(Tokens(Text(*plan)), std::vector<std::string>{token})
        << Text(*plan);
    EXPECT_EQ(Tokens(Text(*analyzed)), std::vector<std::string>{token})
        << Text(*analyzed);
  }

  Database db_;
  std::unique_ptr<Engine> engine_;
  Table* t_ = nullptr;
};

TEST_F(ExplainAnalyzeAgreementTest, TwoSidedRangeNamesBothBounds) {
  ExpectToken("SELECT * FROM t WHERE t.k > 10 AND t.k < 95",
              "[range scan (t.k > 10) AND (t.k < 95)]");
  // A tighter later bound replaces an earlier one on the same side.
  ExpectToken("SELECT * FROM t WHERE t.k < 95 AND t.k > 10 AND t.k < 40",
              "[range scan (t.k > 10) AND (t.k < 40)]");
}

TEST_F(ExplainAnalyzeAgreementTest, OneRowClockWindow) {
  ExpectToken(
      "SELECT t.k FROM c, t WHERE t.k > c.ts - 5 AND t.k < c.ts + 40",
      "[range scan (t.k > (c.ts - 5)) AND (t.k < (c.ts + 40))]");
}

TEST_F(ExplainAnalyzeAgreementTest, HashAgainstMergedRangeUnderAdaptive) {
  // g = 1 hits 33 rows; each range conjunct alone hits more, their merged
  // interval 9: the merged range wins.
  ExpectToken("SELECT * FROM t WHERE t.g = 1 AND t.k > 10 AND t.k < 20",
              "[range scan (t.k > 10) AND (t.k < 20)]");
  // A wider interval loses to the hash probe.
  ExpectToken("SELECT * FROM t WHERE t.g = 1 AND t.k > 10 AND t.k < 90",
              "[index probe (t.g = 1)]");
}

TEST_F(ExplainAnalyzeAgreementTest, RangeScanWithoutItsIndexFallsBackToHash) {
  t_->EnableStats();
  auto stmt =
      Parser::ParseSelect("SELECT * FROM t WHERE t.g = 1 AND t.k > 90");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  Binder binder(engine_->db_catalog());
  auto bound = binder.Bind(**stmt);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto plan = Planner(PlannerOptions{true, true}).Plan(**bound);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->members[0].scans[0].chosen_path, AccessPath::kRangeScan);

  t_->DropOrderedIndexes();
  std::string rendered = RenderPhysicalPlan(*plan, engine_->db_catalog());
  auto analyzed = ExplainAnalyzePlan(*plan, engine_->db_catalog(), {});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::vector<std::string> expected = {"[index probe (t.g = 1)]"};
  EXPECT_EQ(Tokens(rendered), expected) << rendered;
  EXPECT_EQ(Tokens(*analyzed), expected) << *analyzed;
}

}  // namespace
}  // namespace datalawyer
