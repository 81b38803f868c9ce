// Incremental policy state under log compaction. Compaction deletes reach
// every IncrementalState as a retraction delta (Table::last_retraction)
// that it subtracts in place, so the paper's compaction and the maintained
// state compose: no rebuilds, no fallbacks. Other deletions — user DML on
// a table a policy joins, or a retraction that hits a never-expiring
// contribution — still rebuild, and the verdicts stay those of the full
// evaluation throughout.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <unordered_set>

#include "core/datalawyer.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

/// A system with incremental evaluation and its twin without it, both
/// enforcing the same policies over the same database; the clock advances
/// `clock_step` per query.
struct Twins {
  explicit Twins(DataLawyerOptions options, int64_t clock_step = 10) {
    EXPECT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
    DataLawyerOptions full_options = options;
    full_options.enable_incremental_eval = false;
    incremental = std::make_unique<DataLawyer>(
        &db, UsageLog::WithStandardGenerators(),
        std::make_unique<ManualClock>(0, clock_step), options);
    full = std::make_unique<DataLawyer>(
        &db, UsageLog::WithStandardGenerators(),
        std::make_unique<ManualClock>(0, clock_step), full_options);
  }

  void AddPolicy(const std::string& name, const std::string& sql) {
    ASSERT_TRUE(incremental->AddPolicy(name, sql).ok()) << sql;
    ASSERT_TRUE(full->AddPolicy(name, sql).ok()) << sql;
  }

  /// Runs `sql` on both systems and asserts the same outcome; returns the
  /// incremental system's stats.
  ExecutionStats Run(const std::string& sql, int64_t uid) {
    QueryContext ctx;
    ctx.uid = uid;
    auto a = incremental->Execute(sql, ctx);
    auto b = full->Execute(sql, ctx);
    EXPECT_EQ(a.status().ToString(), b.status().ToString())
        << sql << " uid " << uid;
    if (a.ok() && b.ok()) {
      EXPECT_EQ(a->NumRows(), b->NumRows()) << sql;
    }
    EXPECT_EQ(incremental->last_stats().violations,
              full->last_stats().violations)
        << sql << " uid " << uid;
    return incremental->last_stats();
  }

  Database db;
  std::unique_ptr<DataLawyer> incremental;
  std::unique_ptr<DataLawyer> full;
};

DataLawyerOptions CompactingOptions() {
  DataLawyerOptions options = DataLawyerOptions::AllOptimizations();
  options.enable_unification = false;  // keep one state per policy
  return options;
}

TEST(IncrementalStateTest, PaperPoliciesServeEveryVerdictUnderCompaction) {
  // 100 ticks per query: P5's and P6's 3000-tick windows fill after 30
  // queries, and from then on compaction deletes what slides out.
  Twins twins(CompactingOptions(), 100);
  for (const auto& [name, sql] : PaperPolicies::All()) {
    twins.AddPolicy(name, sql);
  }
  size_t rows_deleted = 0;
  size_t hits = 0;
  for (int q = 0; q < 240; ++q) {
    // Half the stream is uid 1, in scope of every policy.
    int64_t uid = q % 2 == 0 ? 1 : (q / 2) % 4;
    ExecutionStats stats = twins.Run(PaperQueries::W1(), uid);
    if (q < 40) continue;  // warm-up: first folds, windows filling
    EXPECT_EQ(stats.incremental_rebuilds, 0u) << "query " << q;
    EXPECT_EQ(stats.incremental_fallbacks, 0u) << "query " << q;
    rows_deleted += stats.log_rows_deleted;
    hits += stats.incremental_hits;
  }
  // The compactor really deleted log rows, and the states kept answering.
  EXPECT_GT(rows_deleted, 0u);
  EXPECT_GT(hits, 0u);
}

TEST(IncrementalStateTest, DeleteFromGroupsRebuildsP1Once) {
  Twins twins(CompactingOptions());
  for (const auto& [name, sql] : PaperPolicies::All()) {
    twins.AddPolicy(name, sql);
  }
  for (int q = 0; q < 30; ++q) twins.Run(PaperQueries::W1(), q % 3);
  // User DML on a table P1 joins is not a compaction delete: P1's state
  // (the only one reading `groups`) rebuilds, exactly once.
  QueryContext ctx;
  ctx.uid = 0;
  for (DataLawyer* dl : {twins.incremental.get(), twins.full.get()}) {
    ASSERT_TRUE(dl->Execute("DELETE FROM groups WHERE uid = 2", ctx).ok());
  }
  ExecutionStats stats = twins.Run(PaperQueries::W1(), 1);
  EXPECT_EQ(stats.incremental_rebuilds, 1u);
  EXPECT_EQ(stats.incremental_fallbacks, 0u);
  for (int q = 0; q < 10; ++q) {
    stats = twins.Run(PaperQueries::W1(), q % 3);
    EXPECT_EQ(stats.incremental_rebuilds, 0u) << "query " << q;
  }
}

/// Erases the first `n` rows of `table` whose uid (column 1) is `uid`, as a
/// compaction delete; returns how many rows it removed.
size_t DropOldestOfUser(Table* table, int64_t uid, size_t n) {
  std::vector<int64_t> erase;
  for (size_t i = 0; i < table->NumRows() && erase.size() < n; ++i) {
    if (table->RowAt(i)[1] == Value(uid)) erase.push_back(table->RowIdAt(i));
  }
  return table->EraseIds(erase);
}

TEST(IncrementalStateTest, RetractingActiveContributionsSubtractsThem) {
  // A windowed count whose window still holds every row: the retracted
  // rows feed active contributions, which the state must unapply (not
  // merely forget) for the count to drop. Serial evaluation, compaction
  // off: the only deletes are the test's own.
  DataLawyerOptions options = CompactingOptions();
  options.strategy = EvalStrategy::kSerial;
  options.enable_log_compaction = false;
  options.enable_preemptive_compaction = false;
  Twins twins(options);
  twins.AddPolicy("rate", PaperPolicies::RateLimitForUser(1, 1000, 3));
  const std::string sql = PaperQueries::W1();
  for (int q = 0; q < 3; ++q) {
    EXPECT_TRUE(twins.Run(sql, 1).violations.empty());
  }
  EXPECT_EQ(twins.Run(sql, 1).violations.size(), 1u);  // a fourth in 1000

  for (DataLawyer* dl : {twins.incremental.get(), twins.full.get()}) {
    ASSERT_EQ(DropOldestOfUser(dl->usage_log()->main_table("users"), 1, 2),
              2u);
  }
  for (int q = 0; q < 2; ++q) {  // two in the window again, then three
    ExecutionStats stats = twins.Run(sql, 1);
    EXPECT_TRUE(stats.violations.empty()) << "query " << q;
    EXPECT_EQ(stats.incremental_rebuilds, 0u) << "query " << q;
    EXPECT_EQ(stats.incremental_hits, 1u) << "query " << q;
  }
  EXPECT_EQ(twins.Run(sql, 1).violations.size(), 1u);
}

TEST(IncrementalStateTest, RetractingNeverExpiringSourceRebuilds) {
  // A history-wide count: its contributions never expire, so the state
  // keeps only their source row ids, and a retraction hitting one rebuilds.
  // Compaction keeps the whole history (every row is in the witness); the
  // test deletes from the log directly.
  Twins twins(CompactingOptions());
  twins.AddPolicy("cap",
                  "SELECT DISTINCT 'more than 5 queries by user 1' "
                  "FROM users u WHERE u.uid = 1 HAVING COUNT(*) > 5");
  const std::string sql = PaperQueries::W1();
  for (int q = 0; q < 5; ++q) {
    EXPECT_TRUE(twins.Run(sql, 1).violations.empty());
  }
  ExecutionStats stats = twins.Run(sql, 1);  // the sixth is rejected
  EXPECT_EQ(stats.violations.size(), 1u);
  EXPECT_EQ(stats.incremental_hits, 1u);
  EXPECT_EQ(twins.incremental->usage_log()->main_table("users")->NumRows(),
            5u);

  // Drop user 1's oldest log row from both systems: one fewer query counts.
  for (DataLawyer* dl : {twins.incremental.get(), twins.full.get()}) {
    ASSERT_EQ(DropOldestOfUser(dl->usage_log()->main_table("users"), 1, 1),
              1u);
  }
  stats = twins.Run(sql, 1);  // admitted again, from the rebuilt state
  EXPECT_TRUE(stats.violations.empty());
  EXPECT_EQ(stats.incremental_rebuilds, 1u);
  EXPECT_EQ(stats.incremental_hits, 1u);
  stats = twins.Run(sql, 1);  // back at the cap
  EXPECT_EQ(stats.violations.size(), 1u);
  EXPECT_EQ(stats.incremental_rebuilds, 0u);
}

/// One HAVING policy per aggregate the incremental classifier accepts,
/// windowed and unwindowed, over users/provenance/schema; `max_groups`
/// joins the static `groups` table, which the stream's DELETE rebuilds.
/// `count_distinct` lists provenance first, so the increment check at the
/// users round must drop `u.ts = p.ts`, which reads an ungenerated level.
struct AggShape {
  const char* name;
  const char* sql;
};

const AggShape kAggShapes[] = {
    {"count_star",
     "SELECT DISTINCT 'count_star' FROM users u, schema s "
     "WHERE u.ts = s.ts GROUP BY u.ts HAVING COUNT(*) > 2"},
    {"count_col",
     "SELECT DISTINCT 'count_col' FROM users u, provenance p, clock c "
     "WHERE u.ts = p.ts AND u.uid = 1 AND p.irid = 'd_patients' "
     "AND p.ts > c.ts - 200 GROUP BY p.itid HAVING COUNT(p.itid) > 2"},
    {"count_distinct",
     "SELECT DISTINCT 'count_distinct' FROM provenance p, users u, clock c "
     "WHERE u.ts = p.ts AND p.irid = 'd_patients' AND p.ts > c.ts - 100 "
     "HAVING COUNT(DISTINCT p.itid) > 60"},
    {"sum",
     "SELECT DISTINCT 'sum' FROM users u, clock c "
     "WHERE u.ts > c.ts - 100 HAVING SUM(u.uid) > 13"},
    {"sum_distinct",
     "SELECT DISTINCT 'sum_distinct' FROM users u, provenance p, clock c "
     "WHERE u.ts = p.ts AND p.irid = 'd_patients' AND p.ts > c.ts - 100 "
     "GROUP BY u.uid HAVING SUM(DISTINCT p.itid) > 2000"},
    {"min",
     "SELECT DISTINCT 'min' FROM users u, provenance p, clock c "
     "WHERE u.ts = p.ts AND p.irid = 'd_patients' AND p.ts > c.ts - 100 "
     "GROUP BY u.uid HAVING MIN(p.itid) > 150"},
    {"max_groups",
     "SELECT DISTINCT 'max_groups' FROM users u, groups g, clock c "
     "WHERE u.uid = g.uid AND u.ts > c.ts - 60 HAVING MAX(u.uid) < 3"},
    {"max_schema",
     "SELECT DISTINCT 'max_schema' FROM users u, schema s "
     "WHERE u.ts = s.ts GROUP BY s.ts HAVING MAX(s.irid) = 'poe_order'"},
};

/// A user query touching users, provenance and schema rows in varying
/// amounts: small and large d_patients ranges, joins, aggregates.
std::string DrawAggQuery(std::mt19937_64* rng) {
  switch ((*rng)() % 6) {
    case 0:
      return PaperQueries::W1();
    case 1:
      return "SELECT * FROM d_patients WHERE subject_id < " +
             std::to_string(5 + (*rng)() % 120);
    case 2:
      return "SELECT * FROM d_patients WHERE subject_id > " +
             std::to_string(100 + (*rng)() % 100);
    case 3:
      return "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
             "WHERE o.subject_id = p.subject_id AND o.order_id = " +
             std::to_string((*rng)() % 100);
    case 4:
      return "SELECT o.medication, m.dose FROM poe_order o, poe_med m "
             "WHERE o.order_id = m.order_id AND o.order_id = " +
             std::to_string((*rng)() % 100);
    default:
      return "SELECT c.subject_id, COUNT(*) FROM chartevents c "
             "WHERE c.subject_id < 30 AND c.itemid = 211 "
             "GROUP BY c.subject_id";
  }
}

struct AggCase {
  size_t shape;
  bool threaded;  ///< policy_threads = 2 under kInterleaved, else kSerial
};

class AggregateDifferentialTest : public ::testing::TestWithParam<AggCase> {};

TEST_P(AggregateDifferentialTest, IncrementalMatchesFullEvaluation) {
  const AggShape& shape = kAggShapes[GetParam().shape];
  DataLawyerOptions options = CompactingOptions();
  if (GetParam().threaded) {
    options.strategy = EvalStrategy::kInterleaved;
    options.policy_threads = 2;
  } else {
    options.strategy = EvalStrategy::kSerial;
  }
  Twins twins(options);
  twins.AddPolicy(shape.name, shape.sql);
  std::mt19937_64 rng(1000 + GetParam().shape);
  size_t hits = 0;
  size_t rejections = 0;
  for (int q = 0; q < 120; ++q) {
    if (q == 60) {
      QueryContext ctx;
      ctx.uid = 0;
      for (DataLawyer* dl : {twins.incremental.get(), twins.full.get()}) {
        ASSERT_TRUE(dl->Execute("DELETE FROM groups WHERE uid = 2", ctx).ok());
      }
    }
    ExecutionStats stats = twins.Run(DrawAggQuery(&rng), int64_t(rng() % 4));
    hits += stats.incremental_hits;
    if (!stats.violations.empty()) ++rejections;
  }
  EXPECT_GT(hits, 0u) << shape.name;
  EXPECT_GT(rejections, 0u) << shape.name;
  for (const PolicyStats& ps : twins.incremental->PolicyReport()) {
    EXPECT_EQ(ps.incremental_class, "incremental") << ps.name;
  }
}

std::vector<AggCase> AllAggCases() {
  std::vector<AggCase> out;
  for (size_t s = 0; s < std::size(kAggShapes); ++s) {
    out.push_back(AggCase{s, false});
    out.push_back(AggCase{s, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AggregateDifferentialTest, ::testing::ValuesIn(AllAggCases()),
    [](const ::testing::TestParamInfo<AggCase>& info) {
      return std::string(kAggShapes[info.param.shape].name) +
             (info.param.threaded ? "_threads2" : "_serial");
    });

}  // namespace
}  // namespace datalawyer
