#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/datalawyer.h"
#include "core/decision.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "exec/plan_executor.h"
#include "sql/parser.h"

namespace datalawyer {
namespace {

std::string PlanText(const QueryResult& result) {
  std::string out;
  for (const Row& row : result.rows) {
    out += row[0].AsString();
    out += "\n";
  }
  return out;
}

// Parses every "<x>.<y> us" operator annotation plus the trailer's depth-0
// sum and wall time out of a rendered profile.
struct ParsedProfile {
  std::vector<double> op_us;
  double depth0_sum = 0;
  double wall_us = 0;
};

/// The first line of `text` containing `needle` ("" if none).
std::string LineWith(const std::string& text, const std::string& needle) {
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return "";
  size_t start = text.rfind('\n', pos);
  start = start == std::string::npos ? 0 : start + 1;
  return text.substr(start, text.find('\n', pos) - start);
}

ParsedProfile ParseProfile(const std::string& text) {
  ParsedProfile parsed;
  size_t pos = 0;
  while ((pos = text.find(" us", pos)) != std::string::npos) {
    size_t start = pos;
    while (start > 0 && (std::isdigit(text[start - 1]) ||
                         text[start - 1] == '.')) {
      --start;
    }
    double v = std::strtod(text.substr(start, pos - start).c_str(), nullptr);
    size_t line_start = text.rfind('\n', pos);
    line_start = line_start == std::string::npos ? 0 : line_start + 1;
    bool trailer = text.compare(line_start, 8, "  total:") == 0;
    if (trailer) {
      if (parsed.depth0_sum == 0) {
        parsed.depth0_sum = v;
      } else {
        parsed.wall_us = v;
      }
    } else {
      parsed.op_us.push_back(v);
    }
    pos += 3;
  }
  return parsed;
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine engine(&db_);
    ASSERT_TRUE(engine
                    .ExecuteScript(
                        "CREATE TABLE a (x INT);"
                        "CREATE TABLE b (x INT, y INT);"
                        "CREATE TABLE c (y INT, z INT);"
                        "INSERT INTO a VALUES (1), (2), (3);"
                        "INSERT INTO b VALUES (1, 10), (2, 20), (3, 30);"
                        "INSERT INTO c VALUES (10, 100), (20, 200);")
                    .ok());
  }

  Database db_;
};

TEST_F(ExplainAnalyzeTest, ThreeWayJoinShowsPerOperatorRowsAndTime) {
  DataLawyer dl(&db_, nullptr, std::make_unique<ManualClock>(), {});
  QueryContext ctx;
  auto result = dl.Execute(
      "EXPLAIN ANALYZE SELECT a.x, c.z FROM a, b, c "
      "WHERE a.x = b.x AND b.y = c.y",
      ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string plan = PlanText(*result);

  // All three base relations scanned, folded into two joins, plus the
  // projection — every operator annotated with its row flow.
  EXPECT_NE(plan.find("scan a (3 rows)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("scan b (3 rows)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("scan c (2 rows)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("hash join"), std::string::npos) << plan;
  EXPECT_NE(plan.find("project 2 columns"), std::string::npos) << plan;
  EXPECT_NE(plan.find("result: 2 rows"), std::string::npos) << plan;

  ParsedProfile parsed = ParseProfile(plan);
  ASSERT_GE(parsed.op_us.size(), 5u) << plan;
  // The rendered depth-0 sum matches the per-operator numbers (no subquery
  // here, so every operator is depth 0)...
  double sum = 0;
  for (double v : parsed.op_us) sum += v;
  EXPECT_NEAR(parsed.depth0_sum, sum, 0.1 * double(parsed.op_us.size()))
      << plan;
  // ...and operators cannot account for more time than the measured wall
  // (glue between operators is real work the wall includes).
  EXPECT_GT(parsed.wall_us, 0.0) << plan;
  EXPECT_LE(parsed.depth0_sum, parsed.wall_us * 1.05 + 5.0) << plan;
}

TEST_F(ExplainAnalyzeTest, PlainExplainHasNoTimings) {
  DataLawyer dl(&db_, nullptr, std::make_unique<ManualClock>(), {});
  QueryContext ctx;
  auto result = dl.Execute(
      "EXPLAIN SELECT a.x FROM a, b WHERE a.x = b.x", ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string plan = PlanText(*result);
  EXPECT_NE(plan.find("scan a"), std::string::npos) << plan;
  EXPECT_EQ(plan.find(" us"), std::string::npos) << plan;
}

TEST_F(ExplainAnalyzeTest, ExplainStaysUsableAsIdentifier) {
  Engine engine(&db_);
  ASSERT_TRUE(engine
                  .ExecuteScript("CREATE TABLE explain (x INT);"
                                 "INSERT INTO explain VALUES (7);")
                  .ok());
  DataLawyer dl(&db_, nullptr, std::make_unique<ManualClock>(), {});
  QueryContext ctx;
  auto result = dl.Execute("SELECT e.x FROM explain e", ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST_F(ExplainAnalyzeTest, ExplainAnalyzePolicyProfilesCachedPlan) {
  DataLawyer dl(&db_, nullptr, std::make_unique<ManualClock>(), {});
  ASSERT_TRUE(dl.AddPolicy("never",
                           "SELECT DISTINCT 'no' FROM users u "
                           "WHERE u.uid = 999999")
                  .ok());
  auto profile = dl.ExplainAnalyzePolicy("never");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_NE(profile->find("scan users"), std::string::npos) << *profile;
  EXPECT_NE(profile->find(" us"), std::string::npos) << *profile;
  EXPECT_NE(profile->find("total:"), std::string::npos) << *profile;
  EXPECT_NE(profile->find("result: 0 rows"), std::string::npos) << *profile;

  EXPECT_EQ(dl.ExplainAnalyzePolicy("no-such-policy").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ExplainAnalyzeTest, MorselTimingPercentilesRendered) {
  DataLawyerOptions options;
  options.exec_threads = 1;
  options.morsel_size = 1;  // split the three-row scans into morsels
  options.adaptive_morsel_size = false;  // pin the split to morsel_size
  DataLawyer dl(&db_, nullptr, std::make_unique<ManualClock>(), options);
  QueryContext ctx;
  auto result = dl.Execute(
      "EXPLAIN ANALYZE SELECT a.x, b.y FROM a, b WHERE a.x = b.x", ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string plan = PlanText(*result);
  // Every split fragment renders its per-morsel wall-time distribution.
  EXPECT_NE(plan.find("morsels"), std::string::npos) << plan;
  EXPECT_NE(plan.find("morsel min"), std::string::npos) << plan;
  EXPECT_NE(plan.find("p50"), std::string::npos) << plan;
  EXPECT_NE(plan.find("p95"), std::string::npos) << plan;
  // Every morselized operator says who ran its morsels: the caller's and
  // the helpers' shares add up to the morsels it kept, and a helper that
  // ran any of them has its start after dispatch shown.
  size_t checked = 0;
  for (size_t pos = plan.find(", morsels "); pos != std::string::npos;
       pos = plan.find(", morsels ", pos + 1)) {
    unsigned long morsels = 0, caller = 0, helpers = 0;
    ASSERT_EQ(std::sscanf(plan.c_str() + pos,
                          ", morsels %lu (caller %lu helpers %lu", &morsels,
                          &caller, &helpers),
              3)
        << plan;
    EXPECT_LE(caller, morsels) << plan;
    EXPECT_LE(helpers, morsels) << plan;
    EXPECT_EQ(caller + helpers, morsels) << plan;
    std::string line = LineWith(plan.substr(pos), "helpers");
    EXPECT_EQ(helpers > 0, line.find("first helper +") != std::string::npos)
        << line;
    ++checked;
  }
  EXPECT_GT(checked, 0u) << plan;
}

// A W4-shaped query (range + equality scan, hash join, grouped count with
// HAVING): with lineage captured every operator shows the source-tuple
// width it carries, and the aggregate, where lineage sets are built, the
// entries in the sets of the groups HAVING keeps; without capture neither
// shows.
TEST_F(ExplainAnalyzeTest, LineageShareShownOnlyWhenCaptured) {
  Engine engine(&db_);
  ASSERT_TRUE(engine
                  .ExecuteScript(
                      "CREATE TABLE pt (subject_id INT, sex TEXT);"
                      "CREATE TABLE ce (subject_id INT, itemid INT);"
                      "INSERT INTO pt VALUES (1, 'F'), (2, 'M'), (3, 'F'), "
                      "(4, 'M');"
                      "INSERT INTO ce VALUES (1, 211), (1, 211), (1, 211), "
                      "(2, 211), (3, 211), (3, 99), (3, 211), (4, 211), "
                      "(4, 211), (4, 211);")
                  .ok());
  auto stmt = Parser::Parse(
      "SELECT c.subject_id, p.sex, COUNT(c.subject_id) FROM ce c, pt p "
      "WHERE c.subject_id < 4 AND c.subject_id > 0 AND "
      "p.subject_id = c.subject_id AND c.itemid = 211 "
      "GROUP BY c.subject_id, p.sex HAVING COUNT(c.subject_id) > 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  ExecOptions options;
  options.capture_lineage = true;
  Executor with_lineage(engine.db_catalog(), options);
  auto profiled = with_lineage.ExplainAnalyze(*stmt->select);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  const std::string& plan = *profiled;
  EXPECT_NE(LineWith(plan, "scan ce").find("lineage width 1"),
            std::string::npos)
      << plan;
  EXPECT_NE(LineWith(plan, "scan pt").find("lineage width 1"),
            std::string::npos)
      << plan;
  EXPECT_NE(LineWith(plan, "hash join").find("lineage width 2"),
            std::string::npos)
      << plan;
  // Groups 1 (three ce rows + one pt row) and 3 (two + one) pass HAVING;
  // group 2 is dropped before any of its lineage is built.
  EXPECT_NE(LineWith(plan, "aggregate")
                .find("lineage width 2, lineage entries 7"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("result: 2 rows"), std::string::npos) << plan;

  Executor without(engine.db_catalog(), ExecOptions{});
  auto plain = without.ExplainAnalyze(*stmt->select);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->find("lineage"), std::string::npos) << *plain;
  EXPECT_NE(plain->find("result: 2 rows"), std::string::npos) << *plain;
}

TEST(RenderOperatorProfileTest, IndentsByDepthAndSumsDepthZeroOnly) {
  std::vector<OperatorProfile> ops(2);
  ops[0].label = "scan t (10 rows) as t";
  ops[0].rows_in = 10;
  ops[0].rows_out = 5;
  ops[0].wall_us = 2.0;
  ops[1].label = "project 1 columns";
  ops[1].depth = 1;
  ops[1].rows_in = 5;
  ops[1].rows_out = 5;
  ops[1].wall_us = 1.0;
  std::string text = RenderOperatorProfile(ops, 5.0);
  EXPECT_NE(text.find("  scan t (10 rows) as t  (rows 10 -> 5, 2.0 us)"),
            std::string::npos)
      << text;
  // Depth-1 operators indent one extra level.
  EXPECT_NE(text.find("      project 1 columns"), std::string::npos) << text;
  // The depth-1 operator's time is already inside its parent's, so the
  // trailer sums depth 0 only.
  EXPECT_NE(text.find("total: 2 operators, 2.0 us (wall 5.0 us)"),
            std::string::npos)
      << text;
}

class SlowLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine engine(&db_);
    ASSERT_TRUE(engine
                    .ExecuteScript("CREATE TABLE t (v INT);"
                                   "INSERT INTO t VALUES (1), (2);")
                    .ok());
  }

  Database db_;
};

// With the default threshold of 0 the slow-enforcement view is empty, even
// though the decision itself is recorded.
TEST_F(SlowLogTest, DisabledByDefault) {
  DataLawyer dl(&db_, nullptr, std::make_unique<ManualClock>(), {});
  QueryContext ctx;
  ASSERT_TRUE(dl.Execute("SELECT * FROM t", ctx).ok());
  EXPECT_EQ(dl.decision_store().size(), 1u);
  auto rows = dl.QueryUsageLog("SELECT COUNT(*) FROM dl_slow_log");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows[0][0].AsInt64(), 0);
}

TEST_F(SlowLogTest, PhasePartsSumToStatementTotal) {
  DataLawyerOptions options;
  options.slow_enforcement_threshold_us = 0.001;  // everything is "slow"
  DataLawyer dl(&db_, nullptr, std::make_unique<ManualClock>(), options);
  ASSERT_TRUE(dl.AddPolicy("never",
                           "SELECT DISTINCT 'no' FROM users u "
                           "WHERE u.uid = 999999")
                  .ok());
  QueryContext ctx;
  ctx.uid = 1;
  ASSERT_TRUE(dl.Execute("SELECT * FROM t", ctx).ok());
  ASSERT_EQ(dl.decision_store().size(), 1u);

  const DecisionRecord& d = dl.decision_store().records().back();
  const PhaseTimes& p = d.phases;
  double parts = p.parse_us + p.bind_us + p.plan_us + p.log_gen_us +
                 p.policy_eval_us + p.compaction_us + p.user_exec_us;
  EXPECT_DOUBLE_EQ(d.total_us(), parts);
  // The record holds exactly the phases last_stats() converts to, and
  // total_ms() covers the same seven phases.
  EXPECT_EQ(d.total_us(), dl.last_stats().phases().total_us());
  double stats_total_us = dl.last_stats().total_ms() * 1000.0;
  EXPECT_NEAR(d.total_us(), stats_total_us,
              1e-6 * std::max(1.0, stats_total_us));
  EXPECT_TRUE(d.admitted);
  EXPECT_FALSE(d.probe);
  EXPECT_EQ(d.uid, 1);
  EXPECT_EQ(d.query_sql, "SELECT * FROM t");
}

// `\slow json` is the decision store's JSON filtered by total_us.
TEST(SlowLogUnitTest, JsonFiltersByTotal) {
  DecisionStore store(4);
  DecisionRecord fast;
  fast.id = store.NextId();
  fast.query_sql = "fast";
  fast.phases.user_exec_us = 5;
  store.Append(fast);
  DecisionRecord slow;
  slow.id = store.NextId();
  slow.query_sql = "slow \"q\"\n";
  slow.phases.parse_us = 1.5;
  slow.phases.user_exec_us = 100;
  store.Append(slow);

  std::string all = store.ToJson();
  EXPECT_NE(all.find("\"fast\""), std::string::npos) << all;
  std::string json = store.ToJson(50);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_EQ(json.find("\"fast\""), std::string::npos) << json;
  EXPECT_NE(json.find("slow \\\"q\\\"\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\"parse\":1.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total\":101.500"), std::string::npos) << json;
  EXPECT_EQ(store.ToJson(1000), "[]");
}

}  // namespace
}  // namespace datalawyer
