// Differential testing of the SQL substrate: randomly generated
// select-project-join-aggregate queries are executed by the engine and by a
// brute-force reference evaluator written directly against the stored
// tables; results must be identical (as multisets, modulo order). The
// reference also computes each output row's lineage — the (table, row id)
// pairs of every source combination that produces the row — so the
// executor's lineage is checked against an evaluator that shares none of
// its representation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <random>
#include <sstream>

#include "common/task_scheduler.h"
#include "exec/engine.h"
#include "storage/database.h"

namespace datalawyer {
namespace {

struct Dataset {
  // r(a INT, b INT, c TEXT), s(a INT, d INT)
  std::vector<std::array<int64_t, 2>> r_nums;  // (a, b)
  std::vector<std::string> r_text;             // c
  std::vector<std::array<int64_t, 2>> s_rows;  // (a, d)
  std::vector<int64_t> r_ids, s_ids;           // row ids, filled by Load
};

Dataset MakeDataset(std::mt19937_64* rng, int r_rows, int s_rows) {
  Dataset data;
  const char* kTexts[] = {"x", "y", "z"};
  for (int i = 0; i < r_rows; ++i) {
    data.r_nums.push_back({int64_t((*rng)() % 6), int64_t((*rng)() % 10)});
    data.r_text.push_back(kTexts[(*rng)() % 3]);
  }
  for (int i = 0; i < s_rows; ++i) {
    data.s_rows.push_back({int64_t((*rng)() % 6), int64_t((*rng)() % 10)});
  }
  return data;
}

void Load(Database* db, Dataset* dataset) {
  const Dataset& data = *dataset;
  Table* r = db->CreateTable("r", TableSchema()
                                      .AddColumn("a", ValueType::kInt64)
                                      .AddColumn("b", ValueType::kInt64)
                                      .AddColumn("c", ValueType::kString))
                 .value();
  for (size_t i = 0; i < data.r_nums.size(); ++i) {
    auto id = r->Append(Row{Value(data.r_nums[i][0]), Value(data.r_nums[i][1]),
                            Value(data.r_text[i])});
    ASSERT_TRUE(id.ok());
    dataset->r_ids.push_back(*id);
  }
  Table* s = db->CreateTable("s", TableSchema()
                                      .AddColumn("a", ValueType::kInt64)
                                      .AddColumn("d", ValueType::kInt64))
                 .value();
  for (const auto& row : data.s_rows) {
    auto id = s->Append(Row{Value(row[0]), Value(row[1])});
    ASSERT_TRUE(id.ok());
    dataset->s_ids.push_back(*id);
  }
}

/// Reference lineage: (table name, row id) pairs, sorted and unique.
using RefLineage = std::set<std::pair<std::string, int64_t>>;

/// A random query drawn from the grammar the policy language uses,
/// together with its reference answer computed by brute force;
/// `expected_lineage[i]` is the lineage of `expected[i]`.
struct GeneratedCase {
  std::string sql;
  std::vector<Row> expected;
  std::vector<RefLineage> expected_lineage;
};

/// Canonical multiset form for comparison.
std::multiset<std::string> Canon(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) out.insert(RowToString(row));
  return out;
}

std::string LineageText(const RefLineage& lineage) {
  std::string out;
  for (const auto& [table, id] : lineage) {
    out += " " + table + "#" + std::to_string(id);
  }
  return out;
}

/// Canonical (row, lineage) multiset of an expected answer.
std::multiset<std::string> CanonWithLineage(const GeneratedCase& c) {
  std::multiset<std::string> out;
  for (size_t i = 0; i < c.expected.size(); ++i) {
    out.insert(RowToString(c.expected[i]) + " <-" +
               LineageText(c.expected_lineage[i]));
  }
  return out;
}

/// Canonical (row, lineage) multiset of an engine answer, its lineage
/// entries named through base_relations.
std::multiset<std::string> CanonWithLineage(const QueryResult& result) {
  std::multiset<std::string> out;
  for (size_t i = 0; i < result.rows.size(); ++i) {
    RefLineage lineage;
    if (i < result.lineage.size()) {
      for (const LineageEntry& e : result.lineage[i]) {
        std::string table = e.rel < result.base_relations.size()
                                ? result.base_relations[e.rel]
                                : "?";
        lineage.emplace(table, e.row_id);
      }
    }
    out.insert(RowToString(result.rows[i]) + " <-" + LineageText(lineage));
  }
  return out;
}

GeneratedCase Generate(std::mt19937_64* rng, const Dataset& data) {
  GeneratedCase out;
  int64_t a_const = int64_t((*rng)() % 6);
  int64_t b_const = int64_t((*rng)() % 10);
  bool join = ((*rng)() & 1) != 0;
  bool filter_a = ((*rng)() & 1) != 0;
  bool filter_b = ((*rng)() & 1) != 0;
  int shape = int((*rng)() % 4);  // 0 plain, 1 distinct, 2 group, 3 global agg

  std::ostringstream sql;
  std::string where;
  auto add_pred = [&](const std::string& pred) {
    where += where.empty() ? " WHERE " + pred : " AND " + pred;
  };

  // Row source shared by engine and reference: (a, b, c [, d]).
  struct SourceRow {
    int64_t a, b;
    std::string c;
    int64_t d = 0;
    RefLineage lineage;  // the r row, and the s row when joined
  };
  std::vector<SourceRow> source;
  if (join) {
    for (size_t i = 0; i < data.r_nums.size(); ++i) {
      for (size_t j = 0; j < data.s_rows.size(); ++j) {
        const auto& s_row = data.s_rows[j];
        if (data.r_nums[i][0] == s_row[0]) {
          source.push_back(SourceRow{
              data.r_nums[i][0], data.r_nums[i][1], data.r_text[i], s_row[1],
              RefLineage{{"r", data.r_ids[i]}, {"s", data.s_ids[j]}}});
        }
      }
    }
  } else {
    for (size_t i = 0; i < data.r_nums.size(); ++i) {
      source.push_back(SourceRow{data.r_nums[i][0], data.r_nums[i][1],
                                 data.r_text[i], 0,
                                 RefLineage{{"r", data.r_ids[i]}}});
    }
  }

  std::vector<SourceRow> filtered;
  for (const SourceRow& row : source) {
    if (filter_a && !(row.a == a_const)) continue;
    if (filter_b && !(row.b < b_const)) continue;
    filtered.push_back(row);
  }

  std::string from = join ? "r, s" : "r";
  if (join) add_pred("r.a = s.a");
  if (filter_a) add_pred("r.a = " + std::to_string(a_const));
  if (filter_b) add_pred("r.b < " + std::to_string(b_const));

  switch (shape) {
    case 0: {  // projection
      sql << "SELECT r.b, r.c FROM " << from << where;
      for (const SourceRow& row : filtered) {
        out.expected.push_back(Row{Value(row.b), Value(row.c)});
        out.expected_lineage.push_back(row.lineage);
      }
      break;
    }
    case 1: {  // distinct projection
      sql << "SELECT DISTINCT r.c FROM " << from << where;
      std::map<std::string, RefLineage> seen;
      for (const SourceRow& row : filtered) {
        seen[row.c].insert(row.lineage.begin(), row.lineage.end());
      }
      for (const auto& [c, lineage] : seen) {
        out.expected.push_back(Row{Value(c)});
        out.expected_lineage.push_back(lineage);
      }
      break;
    }
    case 2: {  // group by + count + having
      int64_t threshold = int64_t((*rng)() % 3);
      sql << "SELECT r.c, COUNT(*) FROM " << from << where
          << " GROUP BY r.c HAVING COUNT(*) > " << threshold;
      std::map<std::string, int64_t> counts;
      std::map<std::string, RefLineage> lineage;
      for (const SourceRow& row : filtered) {
        ++counts[row.c];
        lineage[row.c].insert(row.lineage.begin(), row.lineage.end());
      }
      for (const auto& [c, n] : counts) {
        if (n > threshold) {
          out.expected.push_back(Row{Value(c), Value(n)});
          out.expected_lineage.push_back(lineage[c]);
        }
      }
      break;
    }
    default: {  // global aggregates
      sql << "SELECT COUNT(*), SUM(r.b), COUNT(DISTINCT r.a) FROM " << from
          << where;
      int64_t count = int64_t(filtered.size());
      int64_t sum = 0;
      std::set<int64_t> distinct_a;
      RefLineage lineage;
      for (const SourceRow& row : filtered) {
        sum += row.b;
        distinct_a.insert(row.a);
        lineage.insert(row.lineage.begin(), row.lineage.end());
      }
      Row result{Value(count),
                 count == 0 ? Value::Null() : Value(sum),
                 Value(int64_t(distinct_a.size()))};
      out.expected.push_back(std::move(result));
      out.expected_lineage.push_back(std::move(lineage));
      break;
    }
  }
  out.sql = sql.str();
  return out;
}

/// The shapes that nest a query: a grouped subquery in FROM joined with s,
/// or a UNION [ALL] of an r member and an s member.
GeneratedCase GenerateNested(std::mt19937_64* rng, const Dataset& data) {
  GeneratedCase out;
  int64_t b_const = int64_t((*rng)() % 10);
  int64_t d_const = int64_t((*rng)() % 10);
  if (((*rng)() & 1) != 0) {
    // SELECT t.c, t.n, s.d FROM (grouped r) t, s WHERE t.a = s.a: a row's
    // lineage is its subquery group's r rows plus its s row.
    out.sql =
        "SELECT t.c, t.n, s.d FROM (SELECT r.c, r.a, COUNT(*) AS n FROM r "
        "WHERE r.b < " +
        std::to_string(b_const) + " GROUP BY r.c, r.a) t, s WHERE t.a = s.a";
    std::map<std::pair<std::string, int64_t>, std::pair<int64_t, RefLineage>>
        groups;
    for (size_t i = 0; i < data.r_nums.size(); ++i) {
      if (!(data.r_nums[i][1] < b_const)) continue;
      auto& [n, lineage] = groups[{data.r_text[i], data.r_nums[i][0]}];
      ++n;
      lineage.emplace("r", data.r_ids[i]);
    }
    for (const auto& [key, group] : groups) {
      for (size_t j = 0; j < data.s_rows.size(); ++j) {
        if (data.s_rows[j][0] != key.second) continue;
        out.expected.push_back(Row{Value(key.first), Value(group.first),
                                   Value(data.s_rows[j][1])});
        RefLineage lineage = group.second;
        lineage.emplace("s", data.s_ids[j]);
        out.expected_lineage.push_back(std::move(lineage));
      }
    }
    return out;
  }
  // SELECT r.a ... UNION [ALL] SELECT s.a ...: UNION merges the lineage of
  // equal rows across both members, UNION ALL keeps one row per source row.
  bool all = ((*rng)() & 1) != 0;
  out.sql = "SELECT r.a FROM r WHERE r.b < " + std::to_string(b_const) +
            (all ? " UNION ALL " : " UNION ") +
            "SELECT s.a FROM s WHERE s.d < " + std::to_string(d_const);
  std::vector<std::pair<int64_t, RefLineage>> rows;
  for (size_t i = 0; i < data.r_nums.size(); ++i) {
    if (data.r_nums[i][1] < b_const) {
      rows.push_back({data.r_nums[i][0], RefLineage{{"r", data.r_ids[i]}}});
    }
  }
  for (size_t j = 0; j < data.s_rows.size(); ++j) {
    if (data.s_rows[j][1] < d_const) {
      rows.push_back({data.s_rows[j][0], RefLineage{{"s", data.s_ids[j]}}});
    }
  }
  if (!all) {
    std::map<int64_t, RefLineage> merged;
    for (const auto& [a, lineage] : rows) {
      merged[a].insert(lineage.begin(), lineage.end());
    }
    rows.assign(merged.begin(), merged.end());
  }
  for (auto& [a, lineage] : rows) {
    out.expected.push_back(Row{Value(a)});
    out.expected_lineage.push_back(std::move(lineage));
  }
  return out;
}

class RandomQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQueryTest, EngineMatchesBruteForce) {
  std::mt19937_64 rng(GetParam());
  Database db;
  Dataset data = MakeDataset(&rng, 40, 25);
  Load(&db, &data);
  Engine engine(&db);

  for (int round = 0; round < 40; ++round) {
    GeneratedCase test_case = Generate(&rng, data);
    auto result = engine.ExecuteSql(test_case.sql);
    ASSERT_TRUE(result.ok())
        << test_case.sql << " -> " << result.status().ToString();
    EXPECT_EQ(Canon(result->rows), Canon(test_case.expected))
        << "seed " << GetParam() << " round " << round << "\n  "
        << test_case.sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// The same sweep with lineage capture on: results must not change, and
// replaying any output row's lineage through the query must reproduce it
// (lineage completeness for SPJ queries).
TEST_P(RandomQueryTest, LineageCaptureNeverChangesResults) {
  std::mt19937_64 rng(GetParam() * 1000003);
  Database db;
  Dataset data = MakeDataset(&rng, 30, 20);
  Load(&db, &data);
  Engine engine(&db);
  ExecOptions traced;
  traced.capture_lineage = true;

  for (int round = 0; round < 25; ++round) {
    GeneratedCase test_case = Generate(&rng, data);
    auto plain = engine.ExecuteSql(test_case.sql);
    auto with_lineage = engine.ExecuteSql(test_case.sql, traced);
    ASSERT_TRUE(plain.ok() && with_lineage.ok()) << test_case.sql;
    EXPECT_EQ(Canon(plain->rows), Canon(with_lineage->rows))
        << test_case.sql;
    // Lineage sets are normalized (sorted, unique) and reference the base
    // tables; a lineage set may only be empty for the synthesized global
    // aggregate group over empty input.
    for (size_t i = 0; i < with_lineage->lineage.size(); ++i) {
      const LineageSet& lineage = with_lineage->lineage[i];
      for (size_t j = 1; j < lineage.size(); ++j) {
        EXPECT_TRUE(lineage[j - 1] < lineage[j]) << test_case.sql;
      }
      for (const LineageEntry& entry : lineage) {
        ASSERT_LT(entry.rel, with_lineage->base_relations.size());
      }
    }
  }
}

// Lineage oracle: every output row's (row, lineage) pair must match the
// brute-force reference, for SPJ, DISTINCT, GROUP BY/HAVING and global
// aggregates (joins reordered or not), a grouped subquery in FROM and a
// UNION, run serially and in morsels of 4 rows on two workers.
TEST_P(RandomQueryTest, LineageMatchesBruteForce) {
  std::mt19937_64 rng(GetParam() * 7919);
  Database db;
  Dataset data = MakeDataset(&rng, 40, 25);
  Load(&db, &data);
  Engine engine(&db);
  TaskScheduler serial(0);
  TaskScheduler parallel(2);

  for (int round = 0; round < 30; ++round) {
    GeneratedCase test_case =
        round % 4 == 3 ? GenerateNested(&rng, data) : Generate(&rng, data);
    for (TaskScheduler* scheduler : {&serial, &parallel}) {
      ExecOptions options;
      options.capture_lineage = true;
      options.scheduler = scheduler;
      options.morsel_size = 4;
      auto result = engine.ExecuteSql(test_case.sql, options);
      ASSERT_TRUE(result.ok())
          << test_case.sql << " -> " << result.status().ToString();
      ASSERT_EQ(result->lineage.size(), result->rows.size()) << test_case.sql;
      EXPECT_EQ(CanonWithLineage(*result), CanonWithLineage(test_case))
          << "seed " << GetParam() << " round " << round << " threads "
          << scheduler->num_threads() << "\n  " << test_case.sql;
    }
  }
}

}  // namespace
}  // namespace datalawyer
