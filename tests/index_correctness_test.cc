// Differential testing of the equality hash indexes: randomized insert /
// delete interleavings against an indexed table and an identical unindexed
// twin must produce identical rows for every probe and every executed
// query — the index is an access path, never a semantics change.

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace datalawyer {
namespace {

std::string RowsToString(const std::vector<Row>& rows) {
  std::ostringstream out;
  for (const Row& row : rows) {
    for (const Value& v : row) out << v.ToString() << ",";
    out << "\n";
  }
  return out.str();
}

/// Linear-scan reference for one equality probe.
std::vector<size_t> ReferenceLookup(const Table& table, size_t col,
                                    const Value& v) {
  std::vector<size_t> out;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    if (table.RowAt(i)[col] == v) out.push_back(i);
  }
  return out;
}

TEST(IndexCorrectnessTest, RandomInsertsAndDeletesAgainstLinearScan) {
  std::mt19937_64 rng(2024);
  Table table(TableSchema()
                  .AddColumn("a", ValueType::kInt64)
                  .AddColumn("b", ValueType::kString));
  ASSERT_TRUE(table.BuildIndex("a").ok());
  ASSERT_TRUE(table.BuildIndex("b").ok());

  const char* kTexts[] = {"x", "y", "z", "w"};
  for (int round = 0; round < 60; ++round) {
    // A batch of random appends (index maintained incrementally)...
    size_t appends = rng() % 8;
    for (size_t i = 0; i < appends; ++i) {
      ASSERT_TRUE(table
                      .Append(Row{Value(int64_t(rng() % 10)),
                                  Value(std::string(kTexts[rng() % 4]))})
                      .ok());
    }
    // ...sometimes followed by a random deletion, through either delete
    // path (the index drops and renumbers positions in place).
    if (rng() % 3 == 0 && table.NumRows() > 0) {
      std::unordered_set<int64_t> remove;
      std::vector<int64_t> erase;
      for (size_t i = 0; i < table.NumRows(); ++i) {
        if (rng() % 4 == 0) {
          remove.insert(table.RowIdAt(i));
          erase.push_back(table.RowIdAt(i));
        }
      }
      if (round % 2 == 0) {
        table.RemoveIds(remove);
      } else {
        table.EraseIds(erase);
      }
    }
    ASSERT_TRUE(table.HasValidIndex(0));
    ASSERT_TRUE(table.HasValidIndex(1));

    // Every probeable value, both columns, must match the linear scan
    // exactly — same positions, same (ascending) order.
    for (int64_t a = 0; a < 10; ++a) {
      std::vector<size_t> via_index;
      ASSERT_TRUE(table.IndexLookup(0, Value(a), &via_index));
      EXPECT_EQ(via_index, ReferenceLookup(table, 0, Value(a)))
          << "round " << round << " a=" << a;
    }
    for (const char* text : kTexts) {
      std::vector<size_t> via_index;
      ASSERT_TRUE(table.IndexLookup(1, Value(std::string(text)), &via_index));
      EXPECT_EQ(via_index, ReferenceLookup(table, 1, Value(std::string(text))))
          << "round " << round << " b=" << text;
    }
  }
}

TEST(IndexCorrectnessTest, ExecutorResultsIdenticalWithAndWithoutIndexes) {
  std::mt19937_64 rng(7);

  // Twin databases: identical contents, only one has indexes.
  Database indexed_db;
  Database plain_db;
  for (Database* db : {&indexed_db, &plain_db}) {
    ASSERT_TRUE(db->CreateTable("r", TableSchema()
                                         .AddColumn("a", ValueType::kInt64)
                                         .AddColumn("b", ValueType::kInt64)
                                         .AddColumn("c", ValueType::kString))
                    .ok());
    ASSERT_TRUE(db->CreateTable("s", TableSchema()
                                         .AddColumn("a", ValueType::kInt64)
                                         .AddColumn("d", ValueType::kInt64))
                    .ok());
  }
  const char* kTexts[] = {"x", "y", "z"};
  auto append_everywhere = [&](const std::string& name, const Row& row) {
    for (Database* db : {&indexed_db, &plain_db}) {
      ASSERT_TRUE(db->GetTable(name).value()->Append(row).ok());
    }
  };
  for (int i = 0; i < 200; ++i) {
    append_everywhere("r", Row{Value(int64_t(rng() % 6)),
                               Value(int64_t(rng() % 10)),
                               Value(std::string(kTexts[rng() % 3]))});
  }
  for (int i = 0; i < 80; ++i) {
    append_everywhere("s", Row{Value(int64_t(rng() % 6)),
                               Value(int64_t(rng() % 10))});
  }
  Table* r = indexed_db.GetTable("r").value();
  Table* s = indexed_db.GetTable("s").value();
  ASSERT_TRUE(r->BuildIndex("a").ok());
  ASSERT_TRUE(r->BuildIndex("b").ok());
  ASSERT_TRUE(r->BuildIndex("c").ok());
  ASSERT_TRUE(s->BuildIndex("a").ok());

  Engine indexed(&indexed_db);
  Engine plain(&plain_db);

  std::vector<std::string> queries;
  for (int i = 0; i < 40; ++i) {
    int64_t a = int64_t(rng() % 6);
    int64_t b = int64_t(rng() % 10);
    std::string c = kTexts[rng() % 3];
    switch (rng() % 5) {
      case 0:
        queries.push_back("SELECT * FROM r WHERE a = " + std::to_string(a));
        break;
      case 1:  // literal-first orientation
        queries.push_back("SELECT * FROM r WHERE " + std::to_string(b) +
                          " = b");
        break;
      case 2:  // conjunctive equalities: most selective probe wins
        queries.push_back("SELECT * FROM r WHERE a = " + std::to_string(a) +
                          " AND b = " + std::to_string(b) + " AND c = '" + c +
                          "'");
        break;
      case 3:  // probe + non-equality residual
        queries.push_back("SELECT * FROM r WHERE c = '" + c +
                          "' AND b < " + std::to_string(b));
        break;
      default:  // join with per-relation pushdowns
        queries.push_back("SELECT r.b, s.d FROM r, s WHERE r.a = s.a AND "
                          "r.c = '" + c + "' AND s.a = " + std::to_string(a));
        break;
    }
  }

  // Every query must agree with the unindexed twin row for row and still
  // be served by index probes: deletions keep the indexes current in place
  // (a DELETE used to invalidate a database table's index for good, since
  // nothing refreshes database tables).
  auto check_all = [&](const std::string& phase) {
    for (const std::string& sql : queries) {
      auto with_index = indexed.ExecuteSql(sql);
      auto without = plain.ExecuteSql(sql);
      ASSERT_TRUE(with_index.ok()) << phase << ": " << sql;
      ASSERT_TRUE(without.ok()) << phase << ": " << sql;
      // Exact equality, order included: an index probe emits positions in
      // ascending order, i.e. the same order a full scan produces.
      EXPECT_EQ(RowsToString(with_index->rows), RowsToString(without->rows))
          << phase << ": " << sql;

      Executor executor(indexed.db_catalog());
      auto parsed = Parser::Parse(sql);
      ASSERT_TRUE(parsed.ok());
      ASSERT_TRUE(executor.Execute(*parsed->select).ok());
      EXPECT_GT(executor.scan_stats().index_probes, 0u)
          << phase << ": " << sql;
      EXPECT_GT(executor.scan_stats().index_hits, 0u) << phase << ": " << sql;
    }
  };
  check_all("initial");

  // Mutate both copies identically through the engine.
  for (Engine* e : {&indexed, &plain}) {
    ASSERT_TRUE(e->ExecuteSql("DELETE FROM r WHERE b = 3").ok());
  }
  for (size_t col = 0; col < 3; ++col) EXPECT_TRUE(r->HasValidIndex(col));
  check_all("after DELETE");

  for (Engine* e : {&indexed, &plain}) {
    ASSERT_TRUE(e->ExecuteSql("INSERT INTO r VALUES (1, 3, 'x')").ok());
    ASSERT_TRUE(e->ExecuteSql("DELETE FROM r WHERE a = 2").ok());
    ASSERT_TRUE(e->ExecuteSql("INSERT INTO r VALUES (2, 2, 'y')").ok());
  }
  check_all("after INSERT");

  // DELETE without WHERE empties the table; the indexes keep serving.
  for (Engine* e : {&indexed, &plain}) {
    ASSERT_TRUE(e->ExecuteSql("DELETE FROM r").ok());
    ASSERT_TRUE(e->ExecuteSql("INSERT INTO r VALUES (1, 3, 'x')").ok());
  }
  std::vector<size_t> hits;
  ASSERT_TRUE(r->IndexLookup(0, Value(int64_t{1}), &hits));
  EXPECT_EQ(hits, std::vector<size_t>{0});
}

}  // namespace
}  // namespace datalawyer
