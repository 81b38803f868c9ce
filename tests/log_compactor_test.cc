#include <gtest/gtest.h>

#include <deque>

#include "analysis/binder.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "plan/optimizer.h"
#include "policy/log_compactor.h"
#include "policy/policy.h"
#include "policy/policy_analyzer.h"
#include "policy/witness.h"
#include "sql/parser.h"
#include "workload/paper_policies.h"

namespace datalawyer {
namespace {

class LogCompactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&db_);
    ASSERT_TRUE(engine_
                    ->ExecuteScript(R"sql(
      CREATE TABLE groups (uid INT, gid TEXT);
      INSERT INTO groups VALUES (1, 'X'), (2, 'X'), (3, 'Y');
    )sql")
                    .ok());
    log_ = UsageLog::WithStandardGenerators();
  }

  /// Appends a (ts, uid) row directly to the users main table.
  void SeedUsersMain(int64_t ts, int64_t uid) {
    ASSERT_TRUE(
        log_->main_table("users")->Append(Row{Value(ts), Value(uid)}).ok());
  }
  void StageUsersDelta(int64_t ts, int64_t uid) {
    ASSERT_TRUE(
        log_->delta_table("users")->Append(Row{Value(ts), Value(uid)}).ok());
  }

  WitnessSet BuildWitness(const std::string& policy_sql) {
    auto stmt = Parser::ParseSelect(policy_sql);
    EXPECT_TRUE(stmt.ok());
    stmts_.push_back(std::move(stmt).value());
    WitnessBuilder builder(log_.get());
    auto result = builder.Build(*stmts_.back());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  /// The mark phase as it ran before folding: one bind, plan and lineage
  /// run per witness query, harvesting the query's own relation.
  std::map<std::string, std::set<int64_t>> PerQueryMark(
      const std::vector<const WitnessSet*>& sets, int64_t now,
      std::set<std::string>* keep_all) {
    std::map<std::string, std::set<int64_t>> keep;
    for (const std::string& name : log_->RelationNamesInOrder()) keep[name];
    UsageLog::PolicyCatalog catalog =
        log_->MakeCatalog(engine_->db_catalog(), now);
    AddNowRelation(&catalog, now);
    for (const WitnessSet* set : sets) {
      for (const auto& [name, witness] : set->per_relation) {
        if (witness.full_fallback) {
          keep_all->insert(name);
          continue;
        }
        for (const auto& query : witness.queries) {
          ExecOptions options;
          options.capture_lineage = true;
          Executor executor(catalog.view(), options);
          auto result = executor.Execute(*query);
          EXPECT_TRUE(result.ok()) << query->ToString();
          if (!result.ok()) continue;
          for (const LineageSet& lineage : result->lineage) {
            for (const LineageEntry& entry : lineage) {
              if (result->base_relations[entry.rel] == name) {
                keep[name].insert(entry.row_id);
              }
            }
          }
        }
      }
    }
    return keep;
  }

  /// Folds `sets`, marks with the bodies both bound and planned per call
  /// and from plans built once ahead of time, and checks both against
  /// PerQueryMark. Returns the folded keep map.
  std::map<std::string, std::set<int64_t>> ExpectFoldedMarkEqualsPerQuery(
      const std::vector<const WitnessSet*>& sets, int64_t now) {
    std::set<std::string> ref_all;
    std::map<std::string, std::set<int64_t>> ref =
        PerQueryMark(sets, now, &ref_all);

    WitnessBodies bodies = FoldWitnesses(sets);
    LogCompactor compactor(log_.get());
    std::set<std::string> keep_all;
    auto keep = compactor.Mark(bodies, engine_->db_catalog(), now, &keep_all);
    EXPECT_TRUE(keep.ok()) << keep.status().ToString();
    if (!keep.ok()) return {};
    EXPECT_EQ(keep_all, ref_all);
    for (const auto& [rel, ids] : ref) {
      // Fallback relations are kept whole; their ids are never read.
      if (!keep_all.count(rel)) EXPECT_EQ(keep->at(rel), ids) << rel;
    }

    // Plans built once against a catalog that is gone by the time they
    // run, as the plan cache builds them.
    std::deque<std::unique_ptr<BoundQuery>> bound;
    std::deque<PhysicalPlan> plans;
    {
      UsageLog::PolicyCatalog catalog =
          log_->MakeCatalog(engine_->db_catalog(), now);
      AddNowRelation(&catalog, now);
      Binder binder(catalog.view());
      Planner planner;
      for (WitnessBody& body : bodies.bodies) {
        auto b = binder.Bind(*body.query);
        EXPECT_TRUE(b.ok());
        if (!b.ok()) return {};
        bound.push_back(std::move(b).value());
        auto plan = planner.Plan(*bound.back());
        EXPECT_TRUE(plan.ok());
        if (!plan.ok()) return {};
        plans.push_back(std::move(plan).value());
        body.plan = &plans.back();
      }
    }
    std::set<std::string> planned_all;
    auto planned =
        compactor.Mark(bodies, engine_->db_catalog(), now, &planned_all);
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    if (planned.ok()) EXPECT_EQ(*planned, *keep);
    EXPECT_EQ(planned_all, keep_all);
    return *keep;
  }

  Database db_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<UsageLog> log_;
  std::vector<std::unique_ptr<SelectStmt>> stmts_;
};

TEST_F(LogCompactorTest, WindowedPolicyPrunesExpiredRows) {
  // Policy: users in group X within a 100-tick window.
  WitnessSet witness = BuildWitness(
      "SELECT DISTINCT 'e' FROM users u, groups g, clock c "
      "WHERE u.uid = g.uid AND g.gid = 'X' AND u.ts > c.ts - 100 "
      "HAVING COUNT(DISTINCT u.uid) > 10");
  // History: ts 5 (expired by now=200), ts 150 (in window), uid 3 (not X).
  SeedUsersMain(5, 1);
  SeedUsersMain(150, 1);
  SeedUsersMain(150, 3);
  StageUsersDelta(200, 2);

  LogCompactor compactor(log_.get());
  auto stats = compactor.CompactAndFlush(FoldWitnesses({&witness}),
                                         engine_->db_catalog(), /*now=*/200);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_deleted, 2u);   // expired + non-X
  EXPECT_EQ(stats->rows_inserted, 1u);  // staged row survives

  const Table* main = log_->main_table("users");
  ASSERT_EQ(main->NumRows(), 2u);
  EXPECT_EQ(main->RowAt(0)[0], Value(int64_t{150}));
  EXPECT_EQ(main->RowAt(1)[0], Value(int64_t{200}));
  EXPECT_EQ(log_->delta_table("users")->NumRows(), 0u);
}

TEST_F(LogCompactorTest, FullFallbackKeepsEverything) {
  WitnessSet witness =
      BuildWitness("SELECT DISTINCT 'e' FROM users u WHERE uid = 1");
  ASSERT_TRUE(witness.per_relation.at("users").full_fallback);
  SeedUsersMain(1, 1);
  SeedUsersMain(2, 9);
  StageUsersDelta(3, 9);
  LogCompactor compactor(log_.get());
  auto stats = compactor.CompactAndFlush(FoldWitnesses({&witness}),
                                         engine_->db_catalog(), 3);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_deleted, 0u);
  EXPECT_EQ(stats->rows_inserted, 1u);
  EXPECT_EQ(log_->main_table("users")->NumRows(), 3u);
}

TEST_F(LogCompactorTest, UnreferencedRelationIsWiped) {
  // No policy references provenance: nothing of it needs to persist.
  WitnessSet witness =
      BuildWitness("SELECT DISTINCT 'e' FROM users u WHERE u.uid = 1");
  ASSERT_TRUE(log_->main_table("provenance")
                  ->Append(Row{Value(int64_t{1}), Value(int64_t{0}),
                               Value("t"), Value(int64_t{0})})
                  .ok());
  SeedUsersMain(1, 1);
  LogCompactor compactor(log_.get());
  ASSERT_TRUE(compactor
                  .CompactAndFlush(FoldWitnesses({&witness}),
                                   engine_->db_catalog(), 5)
                  .ok());
  EXPECT_EQ(log_->main_table("provenance")->NumRows(), 0u);
  EXPECT_EQ(log_->main_table("users")->NumRows(), 1u);  // uid=1 retained
}

TEST_F(LogCompactorTest, SkipRetentionBypassesWitnessQueries) {
  WitnessSet witness = BuildWitness(
      "SELECT DISTINCT 'e' FROM users u, clock c WHERE u.ts = c.ts "
      "AND u.uid = 1");
  log_->SetPersisted("users", false);
  SeedUsersMain(1, 1);
  StageUsersDelta(2, 1);
  LogCompactor compactor(log_.get());
  auto stats = compactor.CompactAndFlush(
      FoldWitnesses({&witness}, {"users"}), engine_->db_catalog(), 2);
  ASSERT_TRUE(stats.ok());
  // Delta dropped (not persisted), main wiped (skip_retention: no policy
  // needs history).
  EXPECT_EQ(stats->rows_dropped_from_delta, 1u);
  EXPECT_EQ(log_->main_table("users")->NumRows(), 0u);
}

TEST_F(LogCompactorTest, UnionOfWitnessesAcrossPolicies) {
  // Policy A needs uid=1 rows, policy B needs uid=3 rows: both survive.
  WitnessSet a =
      BuildWitness("SELECT DISTINCT 'a' FROM users u WHERE u.uid = 1");
  WitnessSet b =
      BuildWitness("SELECT DISTINCT 'b' FROM users u WHERE u.uid = 3");
  SeedUsersMain(1, 1);
  SeedUsersMain(2, 2);
  SeedUsersMain(3, 3);
  LogCompactor compactor(log_.get());
  auto stats = compactor.CompactAndFlush(FoldWitnesses({&a, &b}),
                                         engine_->db_catalog(), 10);
  ASSERT_TRUE(stats.ok());
  const Table* main = log_->main_table("users");
  ASSERT_EQ(main->NumRows(), 2u);
  EXPECT_EQ(main->RowAt(0)[1], Value(int64_t{1}));
  EXPECT_EQ(main->RowAt(1)[1], Value(int64_t{3}));
}

TEST_F(LogCompactorTest, DistinctOnWitnessKeepsOneRepresentative) {
  // Boolean, aggregate-free policy on uid: one row per distinct uid value
  // suffices (Lemma 4.2).
  WitnessSet witness = BuildWitness(
      "SELECT DISTINCT 'e' FROM users u, groups g WHERE u.uid = g.uid");
  for (int i = 0; i < 5; ++i) SeedUsersMain(i, 1);  // five uid=1 rows
  SeedUsersMain(10, 3);
  LogCompactor compactor(log_.get());
  ASSERT_TRUE(compactor
                  .CompactAndFlush(FoldWitnesses({&witness}),
                                   engine_->db_catalog(), 20)
                  .ok());
  const Table* main = log_->main_table("users");
  // One representative for uid=1 plus the uid=3 row.
  EXPECT_EQ(main->NumRows(), 2u);
}

TEST_F(LogCompactorTest, MarkPhaseExposesKeepSets) {
  WitnessSet witness = BuildWitness(
      "SELECT DISTINCT 'e' FROM users u, groups g "
      "WHERE u.uid = g.uid AND g.gid = 'Y'");
  SeedUsersMain(1, 1);  // X, not retained
  SeedUsersMain(2, 3);  // Y, retained
  LogCompactor compactor(log_.get());
  std::set<std::string> keep_all;
  auto keep = compactor.Mark(FoldWitnesses({&witness}),
                             engine_->db_catalog(), 5, &keep_all);
  ASSERT_TRUE(keep.ok());
  EXPECT_TRUE(keep_all.empty());
  ASSERT_EQ(keep->at("users").size(), 1u);
  EXPECT_EQ(*keep->at("users").begin(), 1);  // row id of the uid=3 row
  EXPECT_TRUE(keep->at("provenance").empty());
}

TEST_F(LogCompactorTest, FoldedMarkEqualsPerQueryMark) {
  // History at clock values 100..3000, plus a staged increment at now:
  // users cycling over uids 0-3 (uid 1's statements read poe_order
  // joined with poe_med and d_patients, P2's violation), schema rows over
  // four input relations, provenance rows whose itids repeat across
  // statements.
  const int64_t now = 3100;
  const char* irids[] = {"poe_order", "poe_med", "d_patients", "chartevents"};
  for (int64_t ts = 100; ts <= now; ts += 100) {
    const bool staged = ts == now;
    auto append = [&](const std::string& rel, Row row) {
      Table* table = staged ? log_->delta_table(rel) : log_->main_table(rel);
      ASSERT_TRUE(table->Append(std::move(row)).ok());
    };
    int64_t k = ts / 100;
    append("users", Row{Value(ts), Value(k % 4)});
    for (int64_t j = 0; j < 3; ++j) {
      append("schema", Row{Value(ts), Value("c"),
                           Value(irids[(k + 3 + j) % 4]), Value("c"),
                           Value(false)});
    }
    for (int64_t j = 0; j < 3; ++j) {
      append("provenance", Row{Value(ts), Value(j), Value(irids[2 + j % 2]),
                               Value((k + j) % 5)});
    }
  }

  // A Boolean join whose aliases keep different DISTINCT ON keys: p one
  // join row per ts, s one per (ts, irid).
  ASSERT_TRUE(engine_
                  ->ExecuteScript(
                      "CREATE TABLE rels (irid TEXT);"
                      "INSERT INTO rels VALUES ('poe_order'), ('d_patients');")
                  .ok());
  const std::string keyed =
      "SELECT DISTINCT 'e' FROM provenance p, schema s, rels r "
      "WHERE p.ts = s.ts AND s.irid = r.irid";

  PolicyAnalyzer analyzer(log_.get());
  WitnessBuilder builder(log_.get());
  std::vector<WitnessSet> effective, time_dependent, raw;
  raw.push_back(BuildWitness(keyed));
  for (const auto& [name, sql] : PaperPolicies::All()) {
    auto policy = Policy::Parse(name, sql);
    ASSERT_TRUE(policy.ok());
    ASSERT_TRUE(analyzer.Analyze(&*policy).ok());
    auto from_effective = builder.Build(policy->effective());
    ASSERT_TRUE(from_effective.ok());
    if (!policy->time_independent) {
      auto again = builder.Build(policy->effective());
      ASSERT_TRUE(again.ok());
      time_dependent.push_back(std::move(again).value());
    }
    effective.push_back(std::move(from_effective).value());
    auto from_raw = builder.Build(*policy->stmt);
    ASSERT_TRUE(from_raw.ok());
    raw.push_back(std::move(from_raw).value());
  }
  auto pointers = [](const std::vector<WitnessSet>& sets) {
    std::vector<const WitnessSet*> out;
    for (const WitnessSet& set : sets) out.push_back(&set);
    return out;
  };

  // P2-P4 are time-independent; P5's u and p share one join, and so on:
  // the defaults fold to one body each for P1, P5 and P6.
  ASSERT_EQ(time_dependent.size(), 3u);
  EXPECT_EQ(FoldWitnesses(pointers(time_dependent)).bodies.size(), 3u);

  auto keep = ExpectFoldedMarkEqualsPerQuery(pointers(time_dependent), now);
  // The marks are selective: the windows drop some history, keep some.
  ASSERT_FALSE(keep.empty());
  EXPECT_FALSE(keep.at("provenance").empty());
  EXPECT_LT(keep.at("provenance").size(),
            log_->main_table("provenance")->NumRows() +
                log_->delta_table("provenance")->NumRows());
  EXPECT_FALSE(keep.at("users").empty());

  // The time-independent policies' witnesses mark nothing: dropping them
  // leaves the keep map unchanged.
  EXPECT_EQ(ExpectFoldedMarkEqualsPerQuery(pointers(effective), now), keep);

  // The raw statements give DISTINCT ON bodies (P2's schema s1, schema s2
  // self-join and the keyed join among them), which fold only with
  // identical text.
  WitnessBodies raw_bodies = FoldWitnesses(pointers(raw));
  bool distinct_on = false;
  for (const WitnessBody& body : raw_bodies.bodies) {
    if (!body.query->distinct_on.empty()) distinct_on = true;
  }
  EXPECT_TRUE(distinct_on);
  auto raw_keep = ExpectFoldedMarkEqualsPerQuery(pointers(raw), now);
  EXPECT_FALSE(raw_keep.at("schema").empty());
}

}  // namespace
}  // namespace datalawyer
