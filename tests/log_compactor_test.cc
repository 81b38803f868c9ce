#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <string>

#include "analysis/binder.h"
#include "core/datalawyer.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "plan/optimizer.h"
#include "policy/log_compactor.h"
#include "policy/policy.h"
#include "policy/policy_analyzer.h"
#include "policy/witness.h"
#include "sql/parser.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"

namespace datalawyer {
namespace {

std::vector<const WitnessSet*> Pointers(const std::vector<WitnessSet>& sets) {
  std::vector<const WitnessSet*> out;
  for (const WitnessSet& set : sets) out.push_back(&set);
  return out;
}

/// Renders `row` for content comparisons: compaction moves increment
/// rows to new ids.
std::string Render(const Row& row) {
  std::string out;
  for (const Value& v : row) out += v.ToString() + "|";
  return out;
}

/// `catalog`'s log relations plus dl_now at `now`.
UsageLog::PolicyCatalog LogCatalog(const UsageLog& log,
                                   const CatalogView* base, int64_t now) {
  UsageLog::PolicyCatalog catalog = log.MakeCatalog(base, now);
  AddNowRelation(&catalog, now);
  return catalog;
}

/// Runs the witness query `query` over `catalog` with lineage.
QueryResult RunWitness(const SelectStmt& query, const CatalogView* catalog) {
  ExecOptions options;
  options.capture_lineage = true;
  Executor executor(catalog, options);
  auto result = executor.Execute(query);
  EXPECT_TRUE(result.ok()) << query.ToString() << ": "
                           << result.status().ToString();
  return result.ok() ? std::move(result).value() : QueryResult{};
}

/// The keys a DISTINCT ON witness keeps a row for over `catalog`: one
/// output row per key, whose DISTINCT ON columns are its `a.*` columns of
/// the same names (a literal key adds nothing).
std::set<Row> LiveKeys(const SelectStmt& query, const CatalogView* catalog) {
  QueryResult result = RunWitness(query, catalog);
  std::vector<size_t> columns;
  for (const ExprPtr& e : query.distinct_on) {
    if (e->kind() != ExprKind::kColumnRef) continue;
    auto col = result.schema.FindColumn(
        static_cast<const ColumnRefExpr&>(*e).column);
    EXPECT_TRUE(col.has_value()) << query.ToString();
    if (col.has_value()) columns.push_back(*col);
  }
  std::set<Row> keys;
  for (const Row& row : result.rows) {
    Row key;
    for (size_t c : columns) key.push_back(row[c]);
    keys.insert(std::move(key));
  }
  EXPECT_EQ(keys.size(), result.rows.size()) << query.ToString();
  return keys;
}

/// The ids of `rel` rows the witnesses of `sets` for `rel` keep over
/// `catalog`, the way the whole-log mark kept them: full-query witnesses,
/// and DISTINCT ON ones too when `keyed`. Sets `*keep_all` when one of them
/// keeps the relation whole.
std::set<int64_t> MarkedIds(const std::vector<const WitnessSet*>& sets,
                            const std::string& rel,
                            const CatalogView* catalog, bool keyed,
                            bool* keep_all) {
  std::set<int64_t> ids;
  for (const WitnessSet* set : sets) {
    auto it = set->per_relation.find(rel);
    if (it == set->per_relation.end()) continue;
    *keep_all = *keep_all || it->second.full_fallback;
    for (const auto& query : it->second.queries) {
      if (!keyed && !query->distinct_on.empty()) continue;
      QueryResult result = RunWitness(*query, catalog);
      for (const LineageSet& lineage : result.lineage) {
        for (const LineageEntry& entry : lineage) {
          if (result.base_relations[entry.rel] == rel) {
            ids.insert(entry.row_id);
          }
        }
      }
    }
  }
  return ids;
}

/// Checks the log in `stamped` against what the whole-log reference mark
/// keeps of the log in `full` (a superset of it), at `now`, for the
/// witnesses of `sets`:
///
///  * every row a full-query (DISTINCT) witness keeps is kept;
///  * every DISTINCT ON witness has a row for the same live keys;
///  * with `exact`, right after a compaction, nothing else is kept: a
///    relation whose DISTINCT ON witnesses have no live key keeps exactly
///    the full-query witnesses' rows, and one only a DISTINCT ON witness
///    keeps rows for keeps exactly one row per live key.
void ExpectRetention(const std::vector<const WitnessSet*>& sets,
                     const UsageLog& full, const UsageLog& stamped,
                     const CatalogView* full_base,
                     const CatalogView* stamped_base, int64_t now,
                     bool exact) {
  UsageLog::PolicyCatalog full_catalog = LogCatalog(full, full_base, now);
  UsageLog::PolicyCatalog stamped_catalog =
      LogCatalog(stamped, stamped_base, now);
  for (const std::string& rel : full.RelationNamesInOrder()) {
    SCOPED_TRACE(rel);
    bool keep_all = false;
    std::set<int64_t> ids =
        MarkedIds(sets, rel, full_catalog.view(), /*keyed=*/false, &keep_all);
    const RelationData* all = full_catalog.view()->Find(rel);
    const RelationData* kept = stamped_catalog.view()->Find(rel);
    std::multiset<std::string> want, got;
    for (size_t i = 0; i < all->NumRows(); ++i) {
      if (keep_all || ids.count(all->RowIdAt(i))) {
        want.insert(Render(all->RowAt(i)));
      }
    }
    for (size_t i = 0; i < kept->NumRows(); ++i) {
      got.insert(Render(kept->RowAt(i)));
    }
    EXPECT_TRUE(std::includes(got.begin(), got.end(), want.begin(),
                              want.end()));
    if (keep_all) {
      if (exact) {
        EXPECT_EQ(got, want);
      }
      continue;
    }
    size_t keyed_live = 0, live_keys = 0;
    for (const WitnessSet* set : sets) {
      auto it = set->per_relation.find(rel);
      if (it == set->per_relation.end()) continue;
      for (const auto& query : it->second.queries) {
        if (query->distinct_on.empty()) continue;
        SCOPED_TRACE(query->ToString());
        std::set<Row> live = LiveKeys(*query, full_catalog.view());
        EXPECT_EQ(LiveKeys(*query, stamped_catalog.view()), live);
        if (!live.empty()) ++keyed_live;
        live_keys += live.size();
      }
    }
    if (exact && keyed_live == 0) {
      EXPECT_EQ(got, want);
    }
    if (exact && keyed_live == 1 && want.empty()) {
      EXPECT_EQ(got.size(), live_keys);
    }
  }
}

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

  /// Folds `sets` and binds and plans every body once, against a catalog
  /// that is gone by the time the plans run, as the plan cache does. The
  /// fixture owns the bound queries and plans.
  WitnessBodies Planned(const std::vector<const WitnessSet*>& sets,
                        const std::set<std::string>& skip_retention = {}) {
    WitnessBodies bodies = FoldWitnesses(sets, skip_retention);
    UsageLog::PolicyCatalog catalog =
        log_->MakeCatalog(engine_->db_catalog(), 0);
    AddNowRelation(&catalog, 0);
    Binder binder(catalog.view());
    Planner planner;
    for (WitnessBody& body : bodies.bodies) {
      auto bound = binder.Bind(*body.query);
      EXPECT_TRUE(bound.ok()) << bound.status().ToString();
      if (!bound.ok()) continue;
      bound_.push_back(std::move(bound).value());
      auto plan = planner.Plan(*bound_.back());
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      if (!plan.ok()) continue;
      plans_.push_back(std::move(plan).value());
      body.plan = &plans_.back();
    }
    return bodies;
  }

  /// Compacts a copy of the log, main and staged rows alike with the same
  /// row ids, with the folded, planned bodies of `sets` at `now`.
  std::unique_ptr<UsageLog> CompactCopy(
      const std::vector<const WitnessSet*>& sets, int64_t now) {
    auto copy = UsageLog::WithStandardGenerators();
    for (const std::string& name : log_->RelationNamesInOrder()) {
      for (bool staged : {false, true}) {
        const Table* from =
            staged ? log_->delta_table(name) : log_->main_table(name);
        Table* to = staged ? copy->delta_table(name) : copy->main_table(name);
        for (size_t i = 0; i < from->NumRows(); ++i) {
          EXPECT_EQ(*to->Append(from->RowAt(i)), from->RowIdAt(i));
        }
      }
    }
    LogCompactor compactor(copy.get());
    auto stats =
        compactor.CompactAndFlush(Planned(sets), engine_->db_catalog(), now);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return copy;
  }

  Database db_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<UsageLog> log_;
  std::vector<std::unique_ptr<SelectStmt>> stmts_;
  std::deque<std::unique_ptr<BoundQuery>> bound_;
  std::deque<PhysicalPlan> plans_;
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
  auto stats = compactor.CompactAndFlush(Planned({&witness}),
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
  auto stats = compactor.CompactAndFlush(Planned({&witness}),
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
  ASSERT_TRUE(
      compactor.CompactAndFlush(Planned({&witness}), engine_->db_catalog(), 5)
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
  auto stats = compactor.CompactAndFlush(Planned({&witness}, {"users"}),
                                         engine_->db_catalog(), 2);
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
  auto stats = compactor.CompactAndFlush(Planned({&a, &b}),
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
  ASSERT_TRUE(
      compactor.CompactAndFlush(Planned({&witness}), engine_->db_catalog(), 20)
          .ok());
  const Table* main = log_->main_table("users");
  // One representative for uid=1 plus the uid=3 row.
  EXPECT_EQ(main->NumRows(), 2u);
}

TEST_F(LogCompactorTest, DistinctOnClaimMovesToTheLatestBound) {
  // One claim per uid (the DISTINCT ON key); its bound is the joined
  // pass's `until`, and a later read joins a later pass.
  ASSERT_TRUE(engine_
                  ->ExecuteScript(
                      "CREATE TABLE passes (uid INT, since INT, until INT);"
                      "INSERT INTO passes VALUES (1, 0, 50), (1, 15, 90);")
                  .ok());
  WitnessSet witness = BuildWitness(
      "SELECT DISTINCT 'e' FROM users u, passes p, clock c "
      "WHERE u.uid = p.uid AND u.ts > p.since AND c.ts < p.until");
  ASSERT_EQ(witness.per_relation.at("users").queries.size(), 1u);
  ASSERT_FALSE(
      witness.per_relation.at("users").queries[0]->distinct_on.empty());
  WitnessBodies bodies = Planned({&witness});
  LogCompactor compactor(log_.get());
  auto compact = [&](int64_t now) {
    auto stats = compactor.CompactAndFlush(bodies, engine_->db_catalog(), now);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  };
  const Table* main = log_->main_table("users");
  StageUsersDelta(10, 1);  // joins the first pass: kept until 50
  compact(10);
  ASSERT_EQ(main->NumRows(), 1u);
  StageUsersDelta(20, 1);  // joins both: the claim moves to it, until 90
  compact(20);
  ASSERT_EQ(main->NumRows(), 1u);
  EXPECT_EQ(main->RowAt(0)[0], Value(int64_t{20}));
  // Past the first pass, the moved claim still keeps the key.
  compact(60);
  ASSERT_EQ(main->NumRows(), 1u);
  compact(89);
  EXPECT_EQ(main->NumRows(), 0u);
}

TEST_F(LogCompactorTest, ReferenceMarkExposesKeepSets) {
  WitnessSet witness = BuildWitness(
      "SELECT DISTINCT 'e' FROM users u, groups g "
      "WHERE u.uid = g.uid AND g.gid = 'Y'");
  SeedUsersMain(1, 1);  // X, not retained
  SeedUsersMain(2, 3);  // Y, retained
  std::set<std::string> keep_all;
  auto keep = PerQueryMark({&witness}, 5, &keep_all);
  EXPECT_TRUE(keep_all.empty());
  ASSERT_EQ(keep.at("users").size(), 1u);
  EXPECT_EQ(*keep.at("users").begin(), 1);  // row id of the uid=3 row
  EXPECT_TRUE(keep.at("provenance").empty());

  // Stamping keeps the same row.
  LogCompactor compactor(log_.get());
  auto stats =
      compactor.CompactAndFlush(Planned({&witness}), engine_->db_catalog(), 5);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const Table* main = log_->main_table("users");
  ASSERT_EQ(main->NumRows(), 1u);
  EXPECT_EQ(main->RowIdAt(0), 1);
}

TEST_F(LogCompactorTest, CompactionReturnsABodysWarmError) {
  WitnessSet witness = BuildWitness(
      "SELECT DISTINCT 'e' FROM users u, groups g "
      "WHERE u.uid = g.uid AND g.gid = 'Y'");
  SeedUsersMain(1, 3);
  StageUsersDelta(5, 3);
  LogCompactor compactor(log_.get());
  WitnessBodies bodies = FoldWitnesses({&witness});
  ASSERT_EQ(bodies.bodies.size(), 1u);
  // Never planned.
  auto stats = compactor.CompactAndFlush(bodies, engine_->db_catalog(), 5);
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  // Planning failed: the body carries that error, code and message.
  bodies.bodies[0].plan = Status::NotFound("no such table: groups");
  stats = compactor.CompactAndFlush(bodies, engine_->db_catalog(), 5);
  EXPECT_EQ(stats.status().ToString(), "NotFound: no such table: groups");
  // Neither run touched the log.
  EXPECT_EQ(log_->main_table("users")->NumRows(), 1u);
  EXPECT_EQ(log_->delta_table("users")->NumRows(), 1u);
}

TEST_F(LogCompactorTest, StampedRetentionEqualsPerQueryMark) {
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
  // P2-P4 are time-independent; P5's u and p share one join, and P5's and
  // P6's differ only in their window: the defaults fold to P1's body and
  // one body with a member per window.
  ASSERT_EQ(time_dependent.size(), 3u);
  WitnessBodies folded = FoldWitnesses(Pointers(time_dependent));
  ASSERT_EQ(folded.bodies.size(), 2u);
  EXPECT_EQ(folded.bodies[0].members.size() + folded.bodies[1].members.size(),
            3u);

  std::set<std::string> keep_all;
  auto keep = PerQueryMark(Pointers(time_dependent), now, &keep_all);
  // The marks are selective: the windows drop some history, keep some.
  EXPECT_TRUE(keep_all.empty());
  EXPECT_FALSE(keep.at("provenance").empty());
  EXPECT_LT(keep.at("provenance").size(),
            log_->main_table("provenance")->NumRows() +
                log_->delta_table("provenance")->NumRows());
  EXPECT_FALSE(keep.at("users").empty());
  // A first compaction stamps the whole log and keeps exactly that.
  ExpectRetention(Pointers(time_dependent), *log_,
                  *CompactCopy(Pointers(time_dependent), now),
                  engine_->db_catalog(), engine_->db_catalog(), now,
                  /*exact=*/true);

  // The time-independent policies' witnesses mark nothing: dropping them
  // leaves the keep map unchanged.
  EXPECT_EQ(PerQueryMark(Pointers(effective), now, &keep_all), keep);
  ExpectRetention(Pointers(effective), *log_,
                  *CompactCopy(Pointers(effective), now),
                  engine_->db_catalog(), engine_->db_catalog(), now,
                  /*exact=*/true);

  // The raw statements give DISTINCT ON bodies (P2's schema s1, schema s2
  // self-join and the keyed join among them), which fold only with
  // identical text and keep a row for every live key.
  WitnessBodies raw_bodies = FoldWitnesses(Pointers(raw));
  bool distinct_on = false;
  for (const WitnessBody& body : raw_bodies.bodies) {
    if (body.key_columns > 0) distinct_on = true;
  }
  EXPECT_TRUE(distinct_on);
  std::unique_ptr<UsageLog> raw_log = CompactCopy(Pointers(raw), now);
  ExpectRetention(Pointers(raw), *log_, *raw_log, engine_->db_catalog(),
                  engine_->db_catalog(), now, /*exact=*/true);
  EXPECT_FALSE(
      PerQueryMark(Pointers(raw), now, &keep_all).at("schema").empty());
  EXPECT_GT(raw_log->main_table("schema")->NumRows(), 0u);
}

// ---- Stamped compaction against the whole-log mark, end to end ----

std::unique_ptr<DataLawyer> MakeInstance(Database* db,
                                         DataLawyerOptions options) {
  EXPECT_TRUE(LoadMimicData(db, MimicConfig::Tiny()).ok());
  // The active policies are the registered ones: the checks below build
  // their witnesses over the database catalog, without Constants tables.
  options.enable_unification = false;
  return std::make_unique<DataLawyer>(
      db, nullptr, std::make_unique<ManualClock>(0, 10), options);
}

/// The witness sets compaction keeps, built from `dl`'s active policies
/// the way Prepare builds them.
std::vector<WitnessSet> WitnessSetsOf(DataLawyer* dl) {
  WitnessBuilder builder(dl->usage_log());
  std::vector<WitnessSet> sets;
  for (const Policy& policy : dl->active_policies()) {
    if (policy.time_independent) continue;
    auto set = builder.Build(policy.effective());
    EXPECT_TRUE(set.ok()) << set.status().ToString();
    if (set.ok()) sets.push_back(std::move(set).value());
  }
  return sets;
}

/// P1 (joins `groups`; uid 1 is the only X member), P5 and P6 (one body,
/// two windows) and a rate limit: full-query witnesses, over 60-150 tick
/// windows.
std::vector<std::pair<std::string, std::string>> WindowPolicies() {
  return {{"p1", PaperPolicies::P1(150, "X", 2)},
          {"p5", PaperPolicies::P5(1, 150, 3)},
          {"p6", PaperPolicies::P6(1, 60, 1)},
          {"rate2", PaperPolicies::RateLimitForUser(2, 100, 3)}};
}

/// Never fires (no uid 99), and its schema alias is joined to nothing: its
/// witness is a single-alias DISTINCT ON (s.ts), with two poe_order schema
/// rows (order_id, medication) per key.
const char* kKeyedPolicy =
    "SELECT DISTINCT 'never' FROM schema s, users u, clock c "
    "WHERE s.irid = 'poe_order' AND u.uid = 99 AND s.ts > c.ts - 60 "
    "AND u.ts > c.ts - 60";

/// One checked read of the stream: a point lookup, a poe_order/poe_med
/// join or a chartevents count over a few patients, by uid 0-3.
std::pair<std::string, QueryContext> NextRead(std::mt19937_64* rng) {
  QueryContext ctx;
  ctx.uid = int64_t((*rng)() % 4);
  std::string k = std::to_string((*rng)() % 6);
  switch ((*rng)() % 3) {
    case 0:
      return {"SELECT * FROM d_patients WHERE subject_id = " + k, ctx};
    case 1:
      return {"SELECT o.order_id, o.medication, m.dose "
              "FROM poe_order o, poe_med m "
              "WHERE o.order_id = m.order_id AND o.order_id = " + k,
              ctx};
    default:
      return {"SELECT COUNT(*) FROM chartevents c WHERE c.subject_id = " + k,
              ctx};
  }
}

/// Sync and async compaction, compacting every query and every third: after
/// every query the stamped log keeps what the whole-log mark keeps of the
/// never-compacted log, exactly right after a compaction, and every
/// verdict is the never-compacting instance's. A policy joins mid-stream.
TEST(StampedCompactionTest, MatchesTheWholeLogMarkOnRandomStreams) {
  for (bool async : {false, true}) {
    for (int period : {1, 3}) {
      for (uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE(std::string(async ? "async" : "sync") + " period " +
                     std::to_string(period) + " seed " +
                     std::to_string(seed));
        DataLawyerOptions options;
        options.async_compaction = async;
        options.compaction_period = period;
        DataLawyerOptions never = options;
        never.enable_log_compaction = false;
        Database stamped_db, full_db;
        auto dl = MakeInstance(&stamped_db, options);
        auto full = MakeInstance(&full_db, never);
        std::vector<std::pair<std::string, std::string>> policies =
            WindowPolicies();
        policies.push_back({"keyed", kKeyedPolicy});
        for (const auto& [name, sql] : policies) {
          ASSERT_TRUE(dl->AddPolicy(name, sql).ok()) << name;
          ASSERT_TRUE(full->AddPolicy(name, sql).ok()) << name;
        }
        std::mt19937_64 rng(seed);
        int admitted = 0, rejected = 0;
        for (int i = 0; i < 60; ++i) {
          SCOPED_TRACE("query " + std::to_string(i));
          if (i == 30) {
            // Restamps the whole log at the next compaction.
            const std::string late = PaperPolicies::P6(3, 90, 1);
            ASSERT_TRUE(dl->AddPolicy("late", late).ok());
            ASSERT_TRUE(full->AddPolicy("late", late).ok());
          }
          auto [sql, ctx] = NextRead(&rng);
          Status got = dl->Execute(sql, ctx).status();
          Status want = full->Execute(sql, ctx).status();
          ASSERT_EQ(got.ToString(), want.ToString()) << sql;
          ASSERT_TRUE(got.ok() || got.IsPolicyViolation()) << got.ToString();
          got.ok() ? ++admitted : ++rejected;
          ASSERT_TRUE(dl->Flush().ok());
          std::vector<WitnessSet> sets = WitnessSetsOf(dl.get());
          ExpectRetention(Pointers(sets), *full->usage_log(), *dl->usage_log(),
                          full->engine()->db_catalog(),
                          dl->engine()->db_catalog(), dl->clock()->Now(),
                          /*exact=*/got.ok() && admitted % period == 0);
          if (HasFailure()) return;
        }
        // Both verdicts occur, and compaction deletes.
        EXPECT_GT(admitted, 20);
        EXPECT_GT(rejected, 0);
        size_t kept = 0, all = 0;
        for (const std::string& rel :
             dl->usage_log()->RelationNamesInOrder()) {
          kept += dl->usage_log()->main_table(rel)->NumRows();
          all += full->usage_log()->main_table(rel)->NumRows();
        }
        EXPECT_LT(2 * kept, all);
      }
    }
  }
}

/// Deletes from `dl`'s log what the whole-log mark would not keep at
/// `now`: the compaction stamping replaced, applied to an instance that
/// never compacts itself.
void ReferenceCompact(DataLawyer* dl, int64_t now) {
  std::vector<WitnessSet> sets = WitnessSetsOf(dl);
  UsageLog* log = dl->usage_log();
  UsageLog::PolicyCatalog catalog =
      LogCatalog(*log, dl->engine()->db_catalog(), now);
  for (const std::string& rel : log->RelationNamesInOrder()) {
    bool keep_all = false;
    std::set<int64_t> keep = MarkedIds(Pointers(sets), rel, catalog.view(),
                                       /*keyed=*/true, &keep_all);
    if (keep_all) continue;
    Table* main = log->main_table(rel);
    std::vector<int64_t> erase;
    for (size_t i = 0; i < main->NumRows(); ++i) {
      if (!keep.count(main->RowIdAt(i))) erase.push_back(main->RowIdAt(i));
    }
    main->EraseIds(erase);
  }
}

/// Writes to `groups`, which P1's witness joins, between queries: uid 2
/// joins and leaves group X, so P1's 150-tick window, not the rate limit's
/// 100, keeps uid 2's reads while it is a member. Each write restamps the
/// log, so the stamped log keeps what the whole-log mark keeps (and so a
/// superset of it), and every verdict is NoOpt()'s wherever the whole-log
/// mark's is.
TEST(StampedCompactionTest, WritesToAJoinedTableRestampTheLog) {
  Database stamped_db, reference_db, noopt_db;
  DataLawyerOptions never;
  never.enable_log_compaction = false;
  auto dl = MakeInstance(&stamped_db, DataLawyerOptions{});
  auto reference = MakeInstance(&reference_db, never);
  auto noopt = MakeInstance(&noopt_db, DataLawyerOptions::NoOpt());
  std::vector<DataLawyer*> all = {dl.get(), reference.get(), noopt.get()};
  for (const auto& [name, sql] : WindowPolicies()) {
    for (DataLawyer* instance : all) {
      ASSERT_TRUE(instance->AddPolicy(name, sql).ok()) << name;
    }
  }
  std::mt19937_64 rng(7);
  bool in_x = false;
  int agreed = 0, rejected = 0;
  for (int i = 0; i < 80; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    if (i % 7 == 3) {
      in_x = !in_x;
      std::string write = in_x ? "INSERT INTO groups VALUES (2, 'X')"
                               : "DELETE FROM groups WHERE uid = 2 "
                                 "AND gid = 'X'";
      for (DataLawyer* instance : all) {
        ASSERT_TRUE(instance->Execute(write, QueryContext{}).ok()) << write;
      }
    }
    auto [sql, ctx] = NextRead(&rng);
    Status got = dl->Execute(sql, ctx).status();
    Status ref = reference->Execute(sql, ctx).status();
    Status want = noopt->Execute(sql, ctx).status();
    if (ref.ok()) ReferenceCompact(reference.get(), reference->clock()->Now());
    if (ref.ok() == want.ok()) {
      ++agreed;
      EXPECT_EQ(got.ok(), want.ok()) << sql;
    }
    if (!want.ok()) ++rejected;

    UsageLog::PolicyCatalog kept = dl->usage_log()->MakeCatalog(
        dl->engine()->db_catalog(), dl->clock()->Now());
    UsageLog::PolicyCatalog marked = reference->usage_log()->MakeCatalog(
        reference->engine()->db_catalog(), reference->clock()->Now());
    for (const std::string& rel : dl->usage_log()->RelationNamesInOrder()) {
      std::multiset<std::string> got_rows, want_rows;
      const RelationData* a = kept.view()->Find(rel);
      const RelationData* b = marked.view()->Find(rel);
      for (size_t r = 0; r < a->NumRows(); ++r) {
        got_rows.insert(Render(a->RowAt(r)));
      }
      for (size_t r = 0; r < b->NumRows(); ++r) {
        want_rows.insert(Render(b->RowAt(r)));
      }
      EXPECT_EQ(got_rows, want_rows) << rel;
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(agreed, 60);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace datalawyer
