// Planner-choice regression suite: the cost model must pick a full scan on
// tiny usage logs and switch to ordered-index range scans for the paper's
// sliding-window policies (P1/P5/P6 shapes) once the log is large — with
// the switch driven end-to-end through the stats-drift rewarm, not a
// manual replan.

#include <gtest/gtest.h>

#include <string>

#include "core/datalawyer.h"
#include "workload/paper_policies.h"

namespace datalawyer {
namespace {

class PlannerChoiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("t", TableSchema().AddColumn(
                                         "x", ValueType::kInt64))
                    .ok());
    ASSERT_TRUE(db_.GetTable("t").value()->Append(Row{Value(int64_t(1))})
                    .ok());
    // Incremental evaluation would answer the window policies from
    // maintained state and never exercise the access paths this suite
    // asserts on; pin it off so the planner's choices stay observable.
    DataLawyerOptions options;
    options.enable_incremental_eval = false;
    // Compaction would cut a grown log back to the window right after the
    // query that rewarmed for it, and the next revalidation (a policy
    // EXPLAIN included) would replan for the small log; keep logs as grown.
    options.enable_log_compaction = false;
    dl_ = std::make_unique<DataLawyer>(&db_,
                                       UsageLog::WithStandardGenerators(),
                                       std::make_unique<ManualClock>(0, 10),
                                       options);
    // P1 shape (window over users), P5/P6 verbatim from the paper, all
    // with thresholds high enough that nothing ever rejects.
    ASSERT_TRUE(dl_->AddPolicy("p1",
                               "SELECT DISTINCT 'p1' FROM users u, clock c "
                               "WHERE u.ts > c.ts - 30 "
                               "HAVING COUNT(DISTINCT u.uid) > 1000000")
                    .ok());
    ASSERT_TRUE(dl_->AddPolicy("p5", PaperPolicies::P5(0, 30, 1000000)).ok());
    ASSERT_TRUE(dl_->AddPolicy("p6", PaperPolicies::P6(0, 30, 1000000)).ok());
  }

  /// One admitted query (ticks the clock; head of the check revalidates
  /// the plan cache, including the stats-drift rewarm).
  void RunQuery() {
    QueryContext ctx;
    ASSERT_TRUE(dl_->Execute("SELECT x FROM t", ctx).ok());
  }

  /// Bulk-grows a log main relation with timestamps spread over [0, 1000).
  void GrowLog(const std::string& name, size_t rows) {
    Table* main = dl_->usage_log()->main_table(name);
    ASSERT_NE(main, nullptr);
    for (size_t i = 0; i < rows; ++i) {
      int64_t ts = int64_t(i % 1000);
      if (name == "users") {
        ASSERT_TRUE(main->Append(Row{Value(ts), Value(int64_t(i % 7))}).ok());
      } else {
        ASSERT_TRUE(main->Append(Row{Value(ts), Value(int64_t(i)),
                                     Value(std::string(
                                         i % 2 == 0 ? "d_patients" : "other")),
                                     Value(int64_t(i % 50))})
                        .ok());
      }
    }
  }

  Database db_;
  std::unique_ptr<DataLawyer> dl_;
};

TEST_F(PlannerChoiceTest, SmallLogsPlanFullScansWithEstimates) {
  RunQuery();  // Prepare + warm against empty logs
  for (const char* name : {"p1", "p5", "p6"}) {
    auto plan = dl_->ExplainPolicy(name);
    ASSERT_TRUE(plan.ok()) << name;
    // Nothing to win at size ~0: no range scan, but the cost model is live
    // and annotates its cardinality estimates.
    EXPECT_EQ(plan->find("range scan"), std::string::npos) << *plan;
    EXPECT_NE(plan->find("est_rows="), std::string::npos) << *plan;
  }
}

TEST_F(PlannerChoiceTest, LargeLogsSwitchWindowPoliciesToRangeScans) {
  RunQuery();
  GrowLog("users", 4000);
  GrowLog("provenance", 4000);
  // Move "now" past the data so the 30ms window is selective, as it is in
  // steady state (log timestamps never exceed the clock).
  static_cast<ManualClock*>(dl_->clock())->AdvanceTo(1000);
  // The next checked query detects the drift (0 -> 4000 rows), bumps the
  // epoch, and rewarms the plan cache against the grown statistics.
  RunQuery();

  for (const char* name : {"p1", "p5", "p6"}) {
    auto plan = dl_->ExplainPolicy(name);
    ASSERT_TRUE(plan.ok()) << name;
    EXPECT_NE(plan->find("range scan"), std::string::npos) << name << "\n"
                                                           << *plan;
    EXPECT_NE(plan->find("est_rows="), std::string::npos) << *plan;
  }
  // The window predicate names the log's ts column in every plan.
  auto p5 = dl_->ExplainPolicy("p5");
  ASSERT_TRUE(p5.ok());
  EXPECT_NE(p5->find("range scan (p.ts >"), std::string::npos) << *p5;

  // The evaluations themselves went through the ordered index.
  RunQuery();
  EXPECT_GT(dl_->last_stats().range_probes, 0u);
  EXPECT_GT(dl_->last_stats().range_hits, 0u);
}

TEST_F(PlannerChoiceTest, CostingKnobForcesAdaptiveChoice) {
  // With costing off the planner attaches probes but pins no path; the
  // adaptive executor still answers through whichever index helps, so
  // results and counters keep working — only the EXPLAIN annotation
  // (est_rows) disappears.
  DataLawyerOptions options;
  options.enable_stats_costing = false;
  Database db;
  ASSERT_TRUE(
      db.CreateTable("t", TableSchema().AddColumn("x", ValueType::kInt64))
          .ok());
  ASSERT_TRUE(db.GetTable("t").value()->Append(Row{Value(int64_t(1))}).ok());
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), options);
  ASSERT_TRUE(dl.AddPolicy("p5", PaperPolicies::P5(0, 30, 1000000)).ok());
  QueryContext ctx;
  ASSERT_TRUE(dl.Execute("SELECT x FROM t", ctx).ok());

  Table* main = dl.usage_log()->main_table("provenance");
  ASSERT_NE(main, nullptr);
  for (size_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(main->Append(Row{Value(int64_t(i % 1000)), Value(int64_t(i)),
                                 Value(std::string("d_patients")),
                                 Value(int64_t(i % 50))})
                    .ok());
  }
  ASSERT_TRUE(dl.Execute("SELECT x FROM t", ctx).ok());
  auto plan = dl.ExplainPolicy("p5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("est_rows="), std::string::npos) << *plan;
}

}  // namespace
}  // namespace datalawyer
