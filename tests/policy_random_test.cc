// End-to-end randomized property: policy sets drawn from the template
// families, enforced over random query streams, must produce identical
// verdict sequences under the fully optimized system and the NoOpt
// baseline — and the optimized system's log must stay bounded.

#include <gtest/gtest.h>

#include <random>

#include "core/datalawyer.h"
#include "policy/templates.h"
#include "workload/mimic.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

struct RandomScenario {
  uint64_t seed;
};

class RandomPolicyScenarioTest
    : public ::testing::TestWithParam<RandomScenario> {};

std::vector<std::pair<std::string, std::string>> DrawPolicies(
    std::mt19937_64* rng) {
  std::vector<std::pair<std::string, std::string>> out;
  int n = 2 + int((*rng)() % 4);
  for (int i = 0; i < n; ++i) {
    std::string name = "rp" + std::to_string(i);
    switch ((*rng)() % 6) {
      case 0:
        out.emplace_back(name, PolicyTemplates::RateLimit(
                                   100 + int64_t((*rng)() % 400),
                                   2 + int64_t((*rng)() % 6),
                                   int64_t((*rng)() % 3)));
        break;
      case 1:
        out.emplace_back(name,
                         PolicyTemplates::JoinProhibition(
                             "poe_order", {"poe_med"}, int64_t((*rng)() % 3)));
        break;
      case 2:
        out.emplace_back(name, PolicyTemplates::OutputRowCap(
                                   "d_patients",
                                   20 + int64_t((*rng)() % 300)));
        break;
      case 3:
        out.emplace_back(name, PolicyTemplates::WindowedDistinctTupleCap(
                                   "d_patients",
                                   200 + int64_t((*rng)() % 600),
                                   30 + int64_t((*rng)() % 300),
                                   int64_t((*rng)() % 3)));
        break;
      case 4:
        out.emplace_back(name, PolicyTemplates::TupleReuseCap(
                                   "d_patients",
                                   200 + int64_t((*rng)() % 400),
                                   3 + int64_t((*rng)() % 20)));
        break;
      default:
        out.emplace_back(name, PolicyTemplates::GroupLicense(
                                   "X", "d_patients",
                                   300 + int64_t((*rng)() % 500), 1));
        break;
    }
  }
  return out;
}

std::string DrawQuery(std::mt19937_64* rng) {
  switch ((*rng)() % 6) {
    case 0:
      return PaperQueries::W1();
    case 1:
      return "SELECT * FROM d_patients WHERE subject_id < " +
             std::to_string(5 + (*rng)() % 120);
    case 2:
      return "SELECT o.medication, m.dose FROM poe_order o, poe_med m "
             "WHERE o.order_id = m.order_id AND o.order_id = " +
             std::to_string((*rng)() % 100);
    case 3:
      return "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
             "WHERE o.subject_id = p.subject_id AND o.order_id = " +
             std::to_string((*rng)() % 100);
    case 4:
      return "SELECT c.subject_id, COUNT(*) FROM chartevents c "
             "WHERE c.subject_id < 30 AND c.itemid = 211 "
             "GROUP BY c.subject_id";
    default:
      return "SELECT p.sex, COUNT(*) FROM d_patients p GROUP BY p.sex";
  }
}

TEST_P(RandomPolicyScenarioTest, OptimizedAgreesWithNoOptEverywhere) {
  std::mt19937_64 rng(GetParam().seed);
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());

  auto policies = DrawPolicies(&rng);
  DataLawyer optimized(&db, UsageLog::WithStandardGenerators(),
                       std::make_unique<ManualClock>(0, 10),
                       DataLawyerOptions::AllOptimizations());
  DataLawyer baseline(&db, UsageLog::WithStandardGenerators(),
                      std::make_unique<ManualClock>(0, 10),
                      DataLawyerOptions::NoOpt());
  for (const auto& [name, sql] : policies) {
    ASSERT_TRUE(optimized.AddPolicy(name, sql).ok()) << sql;
    ASSERT_TRUE(baseline.AddPolicy(name, sql).ok()) << sql;
  }

  int rejections = 0;
  for (int step = 0; step < 50; ++step) {
    QueryContext ctx;
    ctx.uid = int64_t(rng() % 3);
    std::string sql = DrawQuery(&rng);
    auto a = optimized.Execute(sql, ctx);
    auto b = baseline.Execute(sql, ctx);
    ASSERT_EQ(a.ok(), b.ok())
        << "seed " << GetParam().seed << " step " << step << " uid "
        << ctx.uid << "\n  query: " << sql
        << "\n  optimized: " << a.status().ToString()
        << "\n  baseline:  " << b.status().ToString();
    if (a.ok()) {
      ASSERT_EQ(a->NumRows(), b->NumRows());
    } else {
      ++rejections;
    }
  }

  // The optimized log never exceeds the baseline's full history.
  size_t optimized_rows = 0, baseline_rows = 0;
  for (const char* rel : {"users", "schema", "provenance"}) {
    optimized_rows += optimized.usage_log()->main_table(rel)->NumRows();
    baseline_rows += baseline.usage_log()->main_table(rel)->NumRows();
  }
  EXPECT_LE(optimized_rows, baseline_rows);
  (void)rejections;  // some seeds reject, some don't — both fine
}

struct DifferentialCounts {
  uint64_t hits = 0;
  uint64_t fallbacks = 0;
  bool any_incremental = false;
};

// Runs the same random workload through two systems that differ only in
// enable_incremental_eval and asserts they agree on every verdict,
// violation message, and captured witness — the incremental path either
// reproduces the full evaluation byte-for-byte or falls back to it.
void ExpectIncrementalAgreesWithFull(uint64_t seed, DataLawyerOptions with,
                                     int steps, DifferentialCounts* counts) {
  std::mt19937_64 rng(seed);
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());

  auto policies = DrawPolicies(&rng);
  DataLawyerOptions without = with;
  without.enable_incremental_eval = false;

  DataLawyer incremental(&db, UsageLog::WithStandardGenerators(),
                         std::make_unique<ManualClock>(0, 10), with);
  DataLawyer full(&db, UsageLog::WithStandardGenerators(),
                  std::make_unique<ManualClock>(0, 10), without);
  for (const auto& [name, sql] : policies) {
    ASSERT_TRUE(incremental.AddPolicy(name, sql).ok()) << sql;
    ASSERT_TRUE(full.AddPolicy(name, sql).ok()) << sql;
  }

  for (int step = 0; step < steps; ++step) {
    QueryContext ctx;
    ctx.uid = int64_t(rng() % 3);
    std::string sql = DrawQuery(&rng);
    auto a = incremental.Execute(sql, ctx);
    auto b = full.Execute(sql, ctx);
    ASSERT_EQ(a.status().ToString(), b.status().ToString())
        << "seed " << seed << " step " << step << " uid " << ctx.uid
        << "\n  query: " << sql;
    if (a.ok()) {
      ASSERT_EQ(a->NumRows(), b->NumRows());
    }
    ASSERT_EQ(incremental.last_stats().violations,
              full.last_stats().violations)
        << "seed " << seed << " step " << step;
    counts->hits += incremental.last_stats().incremental_hits;
    counts->fallbacks += incremental.last_stats().incremental_fallbacks;
    ASSERT_EQ(full.last_stats().incremental_hits, 0u);

    // Witness capture rides the unchanged full re-evaluation at rejection
    // time, so the decision records' witness sets must match row-for-row.
    const auto& ra = incremental.decision_store().records();
    const auto& rb = full.decision_store().records();
    ASSERT_EQ(ra.empty(), rb.empty());
    if (!ra.empty()) {
      const DecisionRecord& da = ra.back();
      const DecisionRecord& db_rec = rb.back();
      ASSERT_EQ(std::string(da.verdict()), std::string(db_rec.verdict()));
      ASSERT_EQ(da.messages, db_rec.messages);
      ASSERT_EQ(da.witnesses.size(), db_rec.witnesses.size());
      for (size_t w = 0; w < da.witnesses.size(); ++w) {
        EXPECT_EQ(da.witnesses[w].relation, db_rec.witnesses[w].relation);
        EXPECT_EQ(da.witnesses[w].row_id, db_rec.witnesses[w].row_id);
        EXPECT_EQ(da.witnesses[w].ts, db_rec.witnesses[w].ts);
        EXPECT_EQ(da.witnesses[w].values, db_rec.witnesses[w].values);
      }
    }
  }

  for (const PolicyStats& s : incremental.PolicyReport()) {
    if (s.incremental_class == "incremental") counts->any_incremental = true;
  }
}

// Unification is pinned off on both sides so every policy keeps its own
// incremental state. Compaction is off too: the states fold the whole,
// unpruned history. IncrementalAgreesWithFullUnderCompaction covers the
// compacted log.
TEST_P(RandomPolicyScenarioTest, IncrementalAgreesWithFullEverywhere) {
  DataLawyerOptions with = DataLawyerOptions::AllOptimizations();
  with.enable_unification = false;
  with.enable_log_compaction = false;
  with.enable_preemptive_compaction = false;
  DifferentialCounts counts;
  ExpectIncrementalAgreesWithFull(GetParam().seed, with, 50, &counts);
  if (HasFatalFailure()) return;
  // If any policy classified as incrementalizable, the fast path must have
  // actually served verdicts (otherwise this differential proves nothing).
  if (counts.any_incremental) {
    EXPECT_GT(counts.hits, 0u) << "seed " << GetParam().seed;
  }
}

// The same differential with compaction on, synchronous every query, every
// third query, and asynchronous with a policy fan-out. Compaction deletes
// reach the incremental states as retraction deltas, so the states never
// fall back: every verdict of an incremental policy comes from its state.
TEST_P(RandomPolicyScenarioTest, IncrementalAgreesWithFullUnderCompaction) {
  struct Variant {
    const char* name;
    int compaction_period;
    bool async;
  };
  const Variant variants[] = {
      {"period 1", 1, false},
      {"period 3", 3, false},
      {"async, 2 policy threads", 1, true},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    DataLawyerOptions with = DataLawyerOptions::AllOptimizations();
    with.enable_unification = false;
    with.compaction_period = v.compaction_period;
    with.async_compaction = v.async;
    if (v.async) with.policy_threads = 2;
    DifferentialCounts counts;
    ExpectIncrementalAgreesWithFull(GetParam().seed, with, 200, &counts);
    if (HasFatalFailure()) return;
    EXPECT_EQ(counts.fallbacks, 0u) << "seed " << GetParam().seed;
    if (counts.any_incremental) {
      EXPECT_GT(counts.hits, 0u) << "seed " << GetParam().seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomPolicyScenarioTest,
    ::testing::Values(RandomScenario{101}, RandomScenario{202},
                      RandomScenario{303}, RandomScenario{404},
                      RandomScenario{505}, RandomScenario{606},
                      RandomScenario{707}, RandomScenario{808},
                      RandomScenario{909}, RandomScenario{1010}));

}  // namespace
}  // namespace datalawyer
