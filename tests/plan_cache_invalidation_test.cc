#include <gtest/gtest.h>

#include <string>

#include "common/clock.h"
#include "common/metrics.h"
#include "core/datalawyer.h"
#include "exec/engine.h"

namespace datalawyer {
namespace {

// The global dl_plan_cache_misses_total counter ticks exactly once per
// cache-stamp change after the initial warm: a DDL statement bumps the
// schema version, and toggling enable_log_indexes flips the index bit of
// the stamp. Steady-state queries add nothing, and verdicts are identical
// across every rewarm.
TEST(PlanCacheInvalidationTest, MissCounterTicksOncePerStampChange) {
  Database db;
  Engine engine(&db);
  ASSERT_TRUE(engine
                  .ExecuteScript("CREATE TABLE t (v INT);"
                                 "INSERT INTO t VALUES (1), (2);")
                  .ok());

  DataLawyerOptions options;
  options.enable_metrics = true;
  DataLawyer dl(&db, nullptr, std::make_unique<ManualClock>(), options);
  ASSERT_TRUE(dl.AddPolicy("never",
                           "SELECT DISTINCT 'no' FROM users u "
                           "WHERE u.uid = 999999")
                  .ok());
  QueryContext ctx;
  ctx.uid = 1;
  auto run = [&]() {
    auto result = dl.Execute("SELECT * FROM t", ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows.size(), 2u);
  };

  Counter* misses =
      MetricsRegistry::Global().GetCounter("dl_plan_cache_misses_total");

  // First query: Prepare populates the cache. The initial warm is not an
  // invalidation, so it never counts.
  run();
  uint64_t base = misses->value();

  // Steady state: no stamp movement, no misses.
  run();
  run();
  EXPECT_EQ(misses->value(), base);

  // DDL bumps the database schema version -> exactly one rewarm.
  ASSERT_TRUE(dl.Execute("CREATE TABLE other (w INT)", ctx).ok());
  run();
  EXPECT_EQ(misses->value(), base + 1);
  run();
  EXPECT_EQ(misses->value(), base + 1);

  // Toggling the log-index optimization flips the stamp's index bit ->
  // exactly one more rewarm.
  DataLawyerOptions no_indexes = options;
  no_indexes.enable_log_indexes = false;
  dl.set_options(no_indexes);
  run();
  EXPECT_EQ(misses->value(), base + 2);
  run();
  EXPECT_EQ(misses->value(), base + 2);

  // And back on again.
  dl.set_options(options);
  run();
  EXPECT_EQ(misses->value(), base + 3);

  // The ordered-index bit of the stamp moves independently of the hash
  // bit: toggling it off and back on is one rewarm each way.
  DataLawyerOptions no_ordered = options;
  no_ordered.enable_ordered_log_indexes = false;
  dl.set_options(no_ordered);
  run();
  EXPECT_EQ(misses->value(), base + 4);
  run();
  EXPECT_EQ(misses->value(), base + 4);
  dl.set_options(options);
  run();
  EXPECT_EQ(misses->value(), base + 5);

  // So does the stats bit: costed plans may not outlive a stats toggle.
  DataLawyerOptions no_stats = options;
  no_stats.enable_stats_costing = false;
  dl.set_options(no_stats);
  run();
  EXPECT_EQ(misses->value(), base + 6);
  run();
  EXPECT_EQ(misses->value(), base + 6);

  // Per-query stats never saw a steady-state miss: every evaluated
  // statement after each rewarm ran from the cache.
  EXPECT_EQ(dl.last_stats().plan_cache_misses, 0u);
  EXPECT_GT(dl.last_stats().plan_cache_hits, 0u);
}

// Stats drift is itself a stamp change: once a log main table has grown 2x
// past the 256-row floor since the cached plans were costed, the next
// checked query rewarms (one miss tick), and steady state after the rewarm
// is quiet again. Compaction is disabled so the grown log persists.
TEST(PlanCacheInvalidationTest, StatsDriftRewarmsExactlyOnce) {
  Database db;
  Engine engine(&db);
  ASSERT_TRUE(engine
                  .ExecuteScript("CREATE TABLE t (v INT);"
                                 "INSERT INTO t VALUES (1), (2);")
                  .ok());

  DataLawyerOptions options;
  options.enable_metrics = true;
  options.enable_log_compaction = false;
  options.enable_preemptive_compaction = false;
  DataLawyer dl(&db, nullptr, std::make_unique<ManualClock>(), options);
  ASSERT_TRUE(dl.AddPolicy("never",
                           "SELECT DISTINCT 'no' FROM users u "
                           "WHERE u.uid = 999999")
                  .ok());
  QueryContext ctx;
  ctx.uid = 1;
  auto run = [&]() {
    auto result = dl.Execute("SELECT * FROM t", ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };

  Counter* misses =
      MetricsRegistry::Global().GetCounter("dl_plan_cache_misses_total");
  run();
  run();
  uint64_t base = misses->value();

  // Below the 256-row floor nothing reacts, however large the ratio.
  Table* users = dl.usage_log()->main_table("users");
  ASSERT_NE(users, nullptr);
  while (users->NumRows() < 100) {
    ASSERT_TRUE(
        users->Append(Row{Value(int64_t(0)), Value(int64_t(1))}).ok());
  }
  run();
  EXPECT_EQ(misses->value(), base);

  // Past the floor and past 2x: exactly one rewarm, then quiet.
  while (users->NumRows() < 1000) {
    ASSERT_TRUE(
        users->Append(Row{Value(int64_t(0)), Value(int64_t(1))}).ok());
  }
  run();
  EXPECT_EQ(misses->value(), base + 1);
  run();
  run();
  EXPECT_EQ(misses->value(), base + 1);
}

}  // namespace
}  // namespace datalawyer
