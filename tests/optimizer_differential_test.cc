#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/trace.h"
#include "core/datalawyer.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "policy/templates.h"
#include "sql/parser.h"

namespace datalawyer {
namespace {

// Every SQL feature the planner touches: pushdown, constant folding, equi
// vs. nested-loop joins, 3-way joins (reordered), subqueries, grouping,
// HAVING, DISTINCT / DISTINCT ON, UNION / UNION ALL, ORDER BY, LIMIT.
const char* kWorkload[] = {
    "SELECT * FROM users",
    "SELECT users.name FROM users WHERE users.uid = 2",
    "SELECT users.name FROM users WHERE users.uid = 1 + 1",
    "SELECT users.name FROM users WHERE 1 = 1",
    "SELECT users.name FROM users WHERE 1 = 2",
    "SELECT users.name FROM users WHERE 1 = 2 AND users.uid = 1",
    "SELECT users.name, orders.item FROM users, orders "
    "WHERE users.uid = orders.uid",
    "SELECT users.name, orders.item FROM orders, users "
    "WHERE users.uid = orders.uid",
    "SELECT users.name, orders.item FROM users, orders "
    "WHERE users.uid < orders.uid",
    "SELECT users.name, orders.item, prices.amount "
    "FROM users, orders, prices "
    "WHERE users.uid = orders.uid AND orders.item = prices.item",
    "SELECT prices.amount, orders.item, users.name "
    "FROM prices, orders, users "
    "WHERE users.uid = orders.uid AND orders.item = prices.item "
    "AND prices.amount > 1",
    "SELECT users.uid, COUNT(*) FROM users, orders "
    "WHERE users.uid = orders.uid GROUP BY users.uid",
    "SELECT orders.uid, COUNT(*), SUM(prices.amount) FROM orders, prices "
    "WHERE orders.item = prices.item GROUP BY orders.uid "
    "HAVING COUNT(*) > 1",
    "SELECT COUNT(*) FROM orders WHERE orders.uid = 99",
    "SELECT DISTINCT orders.uid FROM orders",
    "SELECT DISTINCT ON (orders.uid) orders.item FROM orders",
    "SELECT users.uid FROM users UNION SELECT orders.uid FROM orders",
    "SELECT users.uid FROM users UNION ALL SELECT orders.uid FROM orders",
    "SELECT s.n FROM (SELECT COUNT(*) AS n FROM orders) s",
    "SELECT s.uid, users.name "
    "FROM (SELECT DISTINCT orders.uid AS uid FROM orders) s, users "
    "WHERE s.uid = users.uid",
    "SELECT users.name FROM users ORDER BY name",
    "SELECT orders.item, orders.uid FROM orders ORDER BY 2 DESC, 1 LIMIT 3",
    "SELECT users.name FROM users WHERE users.uid = 1 OR users.uid = 3",
    "SELECT 1 + 2",
    // Range predicates: servable from the ordered index (or not), with the
    // cost model free to pick either path — rows and lineage must not move.
    "SELECT users.name FROM users WHERE users.uid > 2",
    "SELECT users.name FROM users WHERE users.uid >= 2 AND users.uid <= 3",
    "SELECT users.name FROM users WHERE users.uid BETWEEN 2 AND 3",
    "SELECT users.name FROM users WHERE users.uid BETWEEN 3 AND 2",
    "SELECT orders.item FROM orders WHERE orders.uid BETWEEN 1 AND 2 "
    "ORDER BY orders.item",
    "SELECT users.name FROM users WHERE users.uid > 1 + 1",
    "SELECT users.name, orders.item FROM users, orders "
    "WHERE orders.uid >= users.uid AND users.uid = 3",
    "SELECT users.name, orders.item FROM users, orders "
    "WHERE orders.uid > users.uid - 2 AND orders.uid < users.uid + 1 "
    "AND users.uid = 2",
    "SELECT COUNT(*) FROM orders WHERE orders.uid >= 2 AND orders.uid = 3",
    "SELECT users.name FROM users WHERE users.uid > 'x'",
};

// (relation name, row id) pairs — comparable across executors whose
// base_relations interning order differs with the scan order.
std::set<std::pair<std::string, int64_t>> ResolvedLineage(
    const QueryResult& result, size_t row) {
  std::set<std::pair<std::string, int64_t>> out;
  for (const LineageEntry& e : result.lineage[row]) {
    out.insert({result.base_relations[e.rel], e.row_id});
  }
  return out;
}

class OptimizerDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&db_);
    ASSERT_TRUE(engine_
                    ->ExecuteScript(R"sql(
      CREATE TABLE users (uid INT, name TEXT);
      INSERT INTO users VALUES (1, 'ann'), (2, 'bob'), (3, 'cat'),
                               (4, 'dan');
      CREATE TABLE orders (uid INT, item TEXT);
      INSERT INTO orders VALUES (1, 'pen'), (1, 'ink'), (2, 'pen'),
                                (3, 'pad'), (3, 'pen'), (3, 'ink');
      CREATE TABLE prices (item TEXT, amount DOUBLE);
      INSERT INTO prices VALUES ('pen', 1.5), ('ink', 4.0), ('pad', 2.0);
    )sql")
                    .ok());
    ASSERT_TRUE(db_.FindTable("orders")->BuildIndex("uid").ok());
    // Ordered indexes and statistics make every access path — and the cost
    // model that picks between them — reachable for the workload above.
    ASSERT_TRUE(db_.FindTable("users")->BuildOrderedIndex("uid").ok());
    ASSERT_TRUE(db_.FindTable("orders")->BuildOrderedIndex("uid").ok());
    for (const char* t : {"users", "orders", "prices"}) {
      db_.FindTable(t)->EnableStats();
    }
  }

  Database db_;
  std::unique_ptr<Engine> engine_;
};

// The tentpole guarantee: the optimized pipeline returns byte-identical
// rows (including order) and identical lineage to the naive plan for the
// whole workload.
TEST_F(OptimizerDifferentialTest, RowsAndLineageIdentical) {
  for (const char* sql : kWorkload) {
    for (bool costing : {true, false}) {
      SCOPED_TRACE(std::string(sql) +
                   (costing ? " [costing on]" : " [costing off]"));
      auto stmt = Parser::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

      ExecOptions naive_opts;
      naive_opts.capture_lineage = true;
      naive_opts.enable_optimizer = false;
      Executor naive(engine_->db_catalog(), naive_opts);
      auto naive_result = naive.Execute(**stmt);

      ExecOptions opt_opts;
      opt_opts.capture_lineage = true;
      opt_opts.enable_optimizer = true;
      opt_opts.enable_stats_costing = costing;
      Executor optimized(engine_->db_catalog(), opt_opts);
      auto opt_result = optimized.Execute(**stmt);

      ASSERT_EQ(naive_result.ok(), opt_result.ok())
          << naive_result.status().ToString() << " vs "
          << opt_result.status().ToString();
      if (!naive_result.ok()) continue;

      ASSERT_EQ(naive_result->rows, opt_result->rows);
      ASSERT_EQ(naive_result->lineage.size(), opt_result->lineage.size());
      for (size_t i = 0; i < naive_result->lineage.size(); ++i) {
        EXPECT_EQ(ResolvedLineage(*naive_result, i),
                  ResolvedLineage(*opt_result, i));
      }
    }
  }
}

// Policy verdicts must agree between the cached-plan path and the one-shot
// bind-and-plan path, query by query, including the violation messages.
TEST(PlanCacheDifferentialTest, VerdictsIdentical) {
  auto make = [](bool cached) {
    auto db = std::make_unique<Database>();
    Engine engine(db.get());
    EXPECT_TRUE(engine
                    .ExecuteScript(R"sql(
      CREATE TABLE patients (pid INT, name TEXT, hiv_status TEXT);
      INSERT INTO patients VALUES (1, 'ann', 'neg'), (2, 'bob', 'pos');
    )sql")
                    .ok());
    DataLawyerOptions options;
    options.enable_plan_cache = cached;
    auto dl = std::make_unique<DataLawyer>(
        db.get(), nullptr, std::make_unique<ManualClock>(), options);
    // P4: at most 2 queries per 100-tick window for uid 7 — history-
    // dependent, so the verdict flips as the usage log accumulates.
    EXPECT_TRUE(
        dl->AddPolicy("cap", PolicyTemplates::RateLimit(100, 2, 7)).ok());
    return std::make_pair(std::move(db), std::move(dl));
  };

  auto [db_a, with_cache] = make(true);
  auto [db_b, without_cache] = make(false);

  for (int i = 0; i < 5; ++i) {
    QueryContext ctx;
    ctx.uid = 7;
    auto a = with_cache->Execute("SELECT * FROM patients", ctx);
    auto b = without_cache->Execute("SELECT * FROM patients", ctx);
    ASSERT_EQ(a.ok(), b.ok()) << "query " << i;
    ASSERT_EQ(a.status().IsPolicyViolation(), b.status().IsPolicyViolation());
    if (!a.ok()) {
      EXPECT_EQ(a.status().message(), b.status().message());
    } else {
      EXPECT_EQ(a->rows, b->rows);
    }
  }
  // The cap fires from the 4th read on; both sides must agree it did.
  QueryContext ctx;
  ctx.uid = 7;
  EXPECT_TRUE(with_cache->Execute("SELECT * FROM patients", ctx)
                  .status()
                  .IsPolicyViolation());

  // Steady state: every policy evaluation after warm-up is a cache hit.
  EXPECT_GT(with_cache->last_stats().plan_cache_hits, 0u);
  EXPECT_EQ(with_cache->last_stats().plan_cache_misses, 0u);
  EXPECT_EQ(without_cache->last_stats().plan_cache_hits, 0u);
}

// The cache's acceptance bar: a steady-state query emits exactly one
// "planning" span — for the user's ad-hoc SQL — while the policy fan-out
// and the compaction's mark phase plan nothing. Without the cache every
// policy evaluation and witness query plans again.
TEST(PlanCacheDifferentialTest, SteadyStateDoesNoPolicyPlanning) {
  auto planning_spans_per_query = [](bool cached) {
    Database db;
    Engine engine(&db);
    EXPECT_TRUE(engine
                    .ExecuteScript("CREATE TABLE t (a INT);"
                                   "INSERT INTO t VALUES (1);")
                    .ok());
    DataLawyerOptions options;
    options.enable_plan_cache = cached;
    options.enable_tracing = true;
    // Compaction runs the policy's witness body from the cache as well.
    options.enable_log_compaction = true;
    DataLawyer dl(&db, nullptr, std::make_unique<ManualClock>(), options);
    EXPECT_TRUE(
        dl.AddPolicy("cap", PolicyTemplates::RateLimit(100, 5, 7)).ok());
    QueryContext ctx;
    ctx.uid = 1;  // never rate-limited, so the query itself always runs
    // First Execute prepares the policies (and warms the cache).
    EXPECT_TRUE(dl.Execute("SELECT * FROM t", ctx).ok());
    Tracer::Global().Clear();
    EXPECT_TRUE(dl.Execute("SELECT * FROM t", ctx).ok());
    size_t planning = 0;
    for (const TraceEvent& e : Tracer::Global().Snapshot()) {
      if (e.name == "planning") ++planning;
    }
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
    return planning;
  };

  size_t with_cache = planning_spans_per_query(true);
  size_t without_cache = planning_spans_per_query(false);
  EXPECT_EQ(with_cache, 1u);
  EXPECT_GT(without_cache, with_cache);
}

}  // namespace
}  // namespace datalawyer
