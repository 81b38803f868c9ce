// DDL/DML coverage for the Engine facade beyond the smoke test.

#include <gtest/gtest.h>

#include "exec/engine.h"
#include "sql/parser.h"

namespace datalawyer {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  Database db_;
  Engine engine_{&db_};
};

TEST_F(EngineTest, CreateInsertSelectRoundTrip) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (a INT, b TEXT)").ok());
  ASSERT_TRUE(
      engine_.ExecuteSql("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  auto result = engine_.ExecuteSql("SELECT * FROM t ORDER BY a");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 2u);
  EXPECT_EQ(result->rows[1][1], Value("y"));
}

TEST_F(EngineTest, InsertWithColumnList) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (a INT, b TEXT, c INT)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("INSERT INTO t (c, a) VALUES (30, 3)").ok());
  auto result = engine_.ExecuteSql("SELECT * FROM t");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(result->rows[0][0], Value(int64_t{3}));
  EXPECT_TRUE(result->rows[0][1].is_null());  // unlisted column → NULL
  EXPECT_EQ(result->rows[0][2], Value(int64_t{30}));
}

TEST_F(EngineTest, InsertCoercesIntToDouble) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (d DOUBLE)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("INSERT INTO t VALUES (3)").ok());
  auto result = engine_.ExecuteSql("SELECT * FROM t");
  ASSERT_TRUE(result->rows[0][0].is_double());
  EXPECT_DOUBLE_EQ(result->rows[0][0].AsDouble(), 3.0);
}

TEST_F(EngineTest, InsertTypeMismatchRejected) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO t VALUES ('str')").ok());
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO t VALUES (1.5)").ok());
  EXPECT_TRUE(engine_.ExecuteSql("INSERT INTO t VALUES (NULL)").ok());
}

TEST_F(EngineTest, InsertArityErrors) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (a INT, b INT)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO t (a) VALUES (1, 2)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO t (a, zz) VALUES (1, 2)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO missing VALUES (1)").ok());
}

TEST_F(EngineTest, InsertConstantExpressions) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("INSERT INTO t VALUES (2 + 3 * 4)").ok());
  auto result = engine_.ExecuteSql("SELECT * FROM t");
  EXPECT_EQ(result->rows[0][0], Value(int64_t{14}));
  // Column references are not constants.
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO t VALUES (a)").ok());
}

TEST_F(EngineTest, DeleteVariants) {
  ASSERT_TRUE(engine_
                  .ExecuteScript("CREATE TABLE t (a INT);"
                                 "INSERT INTO t VALUES (1), (2), (3), (4)")
                  .ok());
  ASSERT_TRUE(engine_.ExecuteSql("DELETE FROM t WHERE a % 2 = 0").ok());
  EXPECT_EQ(engine_.ExecuteSql("SELECT * FROM t")->NumRows(), 2u);
  ASSERT_TRUE(engine_.ExecuteSql("DELETE FROM t").ok());
  EXPECT_EQ(engine_.ExecuteSql("SELECT * FROM t")->NumRows(), 0u);
  EXPECT_FALSE(engine_.ExecuteSql("DELETE FROM missing").ok());
}

TEST_F(EngineTest, DropTable) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("DROP TABLE t").ok());
  EXPECT_FALSE(engine_.ExecuteSql("SELECT * FROM t").ok());
  EXPECT_FALSE(engine_.ExecuteSql("DROP TABLE t").ok());
  // Recreate after drop works.
  EXPECT_TRUE(engine_.ExecuteSql("CREATE TABLE t (b TEXT)").ok());
}

TEST_F(EngineTest, DuplicateCreateRejected) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("CREATE TABLE T (x TEXT)").ok());
}

TEST_F(EngineTest, ScriptStopsAtFirstError) {
  auto result = engine_.ExecuteScript(
      "CREATE TABLE t (a INT); INSERT INTO nope VALUES (1); "
      "CREATE TABLE u (b INT)");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(db_.HasTable("t"));
  EXPECT_FALSE(db_.HasTable("u"));  // never reached
}

TEST_F(EngineTest, SelectAgainstExtraCatalog) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("INSERT INTO t VALUES (1)").ok());
  OwnedRelation extra(TableSchema().AddColumn("x", ValueType::kInt64),
                      {Row{Value(int64_t{42})}});
  OverlayCatalog overlay(engine_.db_catalog());
  overlay.Add("extra", &extra);
  auto stmt = Parser::ParseSelect("SELECT t.a, e.x FROM t, extra e");
  ASSERT_TRUE(stmt.ok());
  auto result = engine_.ExecuteSelect(**stmt, &overlay);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(result->rows[0][1], Value(int64_t{42}));
}

// A trailing ORDER BY / LIMIT orders and limits the whole UNION, not its
// last member. Int 7 and double 7.0 in one output column are a tie, kept in
// union order; a tie falls through to the next key.
TEST_F(EngineTest, OrderByAndLimitApplyToTheWholeUnion) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE t (k INT, x INT)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE u (k INT, x DOUBLE)").ok());
  ASSERT_TRUE(
      engine_.ExecuteSql("INSERT INTO t VALUES (1, 5), (2, 1), (3, 7)").ok());
  ASSERT_TRUE(
      engine_.ExecuteSql("INSERT INTO u VALUES (4, 1.0), (5, 7.0), (6, 2.5)")
          .ok());
  auto keys = [&](const std::string& sql) {
    std::vector<int64_t> out;
    auto result = engine_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) return out;
    for (const Row& row : result->rows) out.push_back(row[0].AsInt64());
    return out;
  };
  const std::string both =
      "SELECT k, x FROM t UNION ALL SELECT k, x FROM u";
  EXPECT_EQ(keys(both + " ORDER BY x DESC LIMIT 2"),
            (std::vector<int64_t>{3, 5}));
  EXPECT_EQ(keys(both + " ORDER BY x DESC"),
            (std::vector<int64_t>{3, 5, 1, 6, 2, 4}));
  EXPECT_EQ(keys(both + " ORDER BY x"),
            (std::vector<int64_t>{2, 4, 6, 1, 3, 5}));
  EXPECT_EQ(keys(both + " ORDER BY x DESC, k DESC"),
            (std::vector<int64_t>{5, 3, 1, 6, 4, 2}));
  EXPECT_EQ(keys(both + " LIMIT 4"), (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(keys("SELECT k, x FROM t UNION SELECT k, x FROM u ORDER BY 1 "
                 "DESC LIMIT 3"),
            (std::vector<int64_t>{6, 5, 4}));

  // The clause renders after the last member and parses back the same.
  auto parsed = Parser::ParseSelect(both + " ORDER BY x DESC LIMIT 2");
  ASSERT_TRUE(parsed.ok());
  const std::string text = (*parsed)->ToString();
  EXPECT_EQ(text,
            "SELECT k, x FROM t UNION ALL SELECT k, x FROM u ORDER BY x DESC "
            "LIMIT 2");
  auto reparsed = Parser::ParseSelect(text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)->ToString(), text);

  // Anywhere but after the last member it would apply to one member.
  for (const char* sql :
       {"SELECT k, x FROM t ORDER BY x UNION ALL SELECT k, x FROM u",
        "SELECT k, x FROM t LIMIT 1 UNION SELECT k, x FROM u",
        "(SELECT k, x FROM t LIMIT 1) UNION SELECT k, x FROM u",
        "SELECT k, x FROM t UNION (SELECT k, x FROM u ORDER BY x)"}) {
    auto result = engine_.ExecuteSql(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kUnsupported) << sql;
  }
}

}  // namespace
}  // namespace datalawyer
