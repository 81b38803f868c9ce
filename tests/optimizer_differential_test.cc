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
#include "policy/partial_policy.h"
#include "policy/templates.h"
#include "policy/witness.h"
#include "sql/parser.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

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

/// Runs `stmt` over `catalog` with the optimizer off and on (with and
/// without stats costing), capturing lineage: rows (order included) and
/// each row's lineage must be identical. So must the rows of a plain run
/// without lineage — an admitted query's answer is its lineage run's rows.
/// Adds the rows compared to `*rows`.
void ExpectOptimizerInvisible(const SelectStmt& stmt,
                              const CatalogView* catalog,
                              size_t* rows = nullptr) {
  ExecOptions naive_opts;
  naive_opts.capture_lineage = true;
  naive_opts.enable_optimizer = false;
  auto naive_result = Executor(catalog, naive_opts).Execute(stmt);
  if (rows != nullptr && naive_result.ok()) *rows += naive_result->NumRows();
  auto plain_result = Executor(catalog).Execute(stmt);
  ASSERT_EQ(naive_result.ok(), plain_result.ok());
  if (naive_result.ok()) ASSERT_EQ(naive_result->rows, plain_result->rows);
  for (bool costing : {true, false}) {
    SCOPED_TRACE(costing ? "costing on" : "costing off");
    ExecOptions opt_opts;
    opt_opts.capture_lineage = true;
    opt_opts.enable_optimizer = true;
    opt_opts.enable_stats_costing = costing;
    auto opt_result = Executor(catalog, opt_opts).Execute(stmt);

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

// The tentpole guarantee: the optimized pipeline returns byte-identical
// rows (including order) and identical lineage to the naive plan for the
// whole workload.
TEST_F(OptimizerDifferentialTest, RowsAndLineageIdentical) {
  for (const char* sql : kWorkload) {
    SCOPED_TRACE(sql);
    auto stmt = Parser::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    ExpectOptimizerInvisible(**stmt, engine_->db_catalog());
  }
}

// The same guarantee for the statements DataLawyer itself plans, over a
// usage log a NoOpt() stream filled: every paper policy, its §4.4 partial
// for every prefix of the generation order, and the witness bodies the
// compactor marks with.
TEST_F(OptimizerDifferentialTest, PolicyCorpusRowsAndLineageIdentical) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10),
                DataLawyerOptions::NoOpt());
  std::vector<std::unique_ptr<SelectStmt>> policies;
  for (const auto& [name, sql] : PaperPolicies::All()) {
    ASSERT_TRUE(dl.AddPolicy(name, sql).ok());
    auto stmt = Parser::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok());
    policies.push_back(std::move(*stmt));
  }
  auto queries = PaperQueries::All();
  for (int i = 0; i < 24; ++i) {
    QueryContext ctx;
    ctx.uid = i % 3;
    (void)dl.Execute(queries[size_t(i) % queries.size()].second, ctx);
  }
  const UsageLog& log = *dl.usage_log();
  ASSERT_GT(log.main_table("provenance")->NumRows(), 0u);

  UsageLog::PolicyCatalog catalog =
      log.MakeCatalog(dl.engine()->db_catalog(), dl.clock()->Now());
  std::vector<std::string> order = log.RelationNamesInOrder();
  WitnessBuilder witness_builder(&log);
  std::vector<WitnessSet> witness_sets;
  size_t partial_rows = 0;
  for (const auto& policy : policies) {
    SCOPED_TRACE(policy->ToString());
    ExpectOptimizerInvisible(*policy, catalog.view());
    std::set<std::string> available;
    for (size_t k = 0; k < order.size(); ++k) {
      auto partial = BuildPartialPolicy(*policy, log, available);
      SCOPED_TRACE(partial->ToString());
      ExpectOptimizerInvisible(*partial, catalog.view(), &partial_rows);
      available.insert(order[k]);
    }
    auto witnesses = witness_builder.Build(*policy);
    ASSERT_TRUE(witnesses.ok()) << witnesses.status().ToString();
    witness_sets.push_back(std::move(*witnesses));
  }

  std::vector<const WitnessSet*> sets;
  for (const WitnessSet& set : witness_sets) sets.push_back(&set);
  WitnessBodies bodies = FoldWitnesses(sets);
  ASSERT_FALSE(bodies.bodies.empty());
  AddNowRelation(&catalog, dl.clock()->Now());
  size_t witness_rows = 0;
  for (const WitnessBody& body : bodies.bodies) {
    SCOPED_TRACE(body.query->ToString());
    ExpectOptimizerInvisible(*body.query, catalog.view(), &witness_rows);
  }
  // Non-empty answers, or the lineage comparison is vacuous.
  EXPECT_GT(partial_rows, 0u);
  EXPECT_GT(witness_rows, 0u);
}

// Policy verdicts from the cached plans, query by query: a history-
// dependent rate limit admits two reads, then rejects every later one,
// with every evaluation a cache hit.
TEST(PlanCacheDifferentialTest, VerdictsIdentical) {
  Database db;
  Engine engine(&db);
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE TABLE patients (pid INT, name TEXT, hiv_status TEXT);
    INSERT INTO patients VALUES (1, 'ann', 'neg'), (2, 'bob', 'pos');
  )sql")
                  .ok());
  DataLawyer dl(&db, nullptr, std::make_unique<ManualClock>(), {});
  // P4: at most 2 queries per 100-tick window for uid 7 — history-
  // dependent, so the verdict flips as the usage log accumulates.
  ASSERT_TRUE(dl.AddPolicy("cap", PolicyTemplates::RateLimit(100, 2, 7)).ok());

  QueryContext ctx;
  ctx.uid = 7;
  for (int i = 0; i < 6; ++i) {
    auto result = dl.Execute("SELECT * FROM patients", ctx);
    if (i < 2) {
      ASSERT_TRUE(result.ok()) << "query " << i << ": "
                               << result.status().ToString();
      EXPECT_EQ(result->rows.size(), 2u);
    } else {
      // The cap fires from the 3rd read on: a rejected read is not logged,
      // so the window keeps holding two.
      ASSERT_TRUE(result.status().IsPolicyViolation())
          << "query " << i << ": " << result.status().ToString();
    }
    EXPECT_GT(dl.last_stats().plan_cache_hits, 0u) << "query " << i;
    EXPECT_EQ(dl.last_stats().plan_cache_misses, 0u) << "query " << i;
  }
}

// The cache's acceptance bar: a steady-state query binds and plans exactly
// once — the user's ad-hoc SQL — while the policy fan-out and the
// compaction's mark phase plan nothing. With a provenance policy the
// lineage run is the answer, so the query is still bound and planned once.
TEST(PlanCacheDifferentialTest, SteadyStateDoesNoPolicyPlanning) {
  for (bool provenance : {false, true}) {
    SCOPED_TRACE(provenance ? "with provenance" : "without provenance");
    Database db;
    Engine engine(&db);
    ASSERT_TRUE(engine
                    .ExecuteScript("CREATE TABLE t (a INT);"
                                   "INSERT INTO t VALUES (1);")
                    .ok());
    DataLawyerOptions options;
    options.enable_tracing = true;
    // Compaction runs the policy's witness body from the cache as well.
    options.enable_log_compaction = true;
    DataLawyer dl(&db, nullptr, std::make_unique<ManualClock>(), options);
    ASSERT_TRUE(
        dl.AddPolicy("cap", PolicyTemplates::RateLimit(100, 5, 7)).ok());
    // P6 for uid 1 reads the provenance log: f_Provenance runs the query.
    if (provenance) ASSERT_TRUE(dl.AddPolicy("p6", PaperPolicies::P6()).ok());
    QueryContext ctx;
    ctx.uid = 1;  // never rate-limited, so the query itself always runs
    // First Execute prepares the policies (and warms the cache).
    EXPECT_TRUE(dl.Execute("SELECT * FROM t", ctx).ok());
    Tracer::Global().Clear();
    EXPECT_TRUE(dl.Execute("SELECT * FROM t", ctx).ok());
    EXPECT_EQ(dl.last_stats().logs_generated, provenance ? 2u : 1u);
    size_t bind = 0;
    size_t planning = 0;
    for (const TraceEvent& e : Tracer::Global().Snapshot()) {
      if (e.name == "analysis.bind") ++bind;
      if (e.name == "planning") ++planning;
    }
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
    EXPECT_EQ(bind, 1u);
    EXPECT_EQ(planning, 1u);
  }
}

}  // namespace
}  // namespace datalawyer
