// Differential testing of the ordered (sorted-run) timestamp indexes:
// randomized insert / delete interleavings, with every range probe checked
// against a std::multimap oracle and a linear scan — across the unsorted
// tail, the threshold-triggered merges, and in-place deletions. The range
// probe is an access path, never a semantics change.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/stats.h"
#include "storage/table.h"

namespace datalawyer {
namespace {

/// Linear-scan reference for one range probe.
std::vector<size_t> ReferenceRange(const Table& table, size_t col,
                                   const int64_t* lo, bool lo_inc,
                                   const int64_t* hi, bool hi_inc) {
  std::vector<size_t> out;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    int64_t v = table.RowAt(i)[col].AsInt64();
    if (lo != nullptr && (lo_inc ? v < *lo : v <= *lo)) continue;
    if (hi != nullptr && (hi_inc ? v > *hi : v >= *hi)) continue;
    out.push_back(i);
  }
  return out;
}

/// Statistics equality as the planner reads them: min/max only matter when
/// the column has a range.
void ExpectStatsEqual(const TableStats& got, const TableStats& want,
                      const std::string& where) {
  ASSERT_EQ(got.valid, want.valid) << where;
  ASSERT_EQ(got.row_count, want.row_count) << where;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << where;
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want.columns[c];
    EXPECT_EQ(g.ndv, w.ndv) << where << " column " << c;
    EXPECT_EQ(g.null_count, w.null_count) << where << " column " << c;
    ASSERT_EQ(g.has_range, w.has_range) << where << " column " << c;
    if (g.has_range) {
      EXPECT_EQ(g.min, w.min) << where << " column " << c;
      EXPECT_EQ(g.max, w.max) << where << " column " << c;
    }
  }
}

TEST(OrderedIndexTest, RandomInsertsAndDeletesAgainstOracle) {
  std::mt19937_64 rng(4242);
  Table table(TableSchema()
                  .AddColumn("ts", ValueType::kInt64)
                  .AddColumn("uid", ValueType::kInt64));
  ASSERT_TRUE(table.BuildOrderedIndex("ts").ok());

  // The oracle mirrors the table's ts column as a sorted multiset.
  std::multimap<int64_t, int64_t> oracle;  // ts -> uid (values unused)

  for (int round = 0; round < 80; ++round) {
    // Appends past the tail-merge threshold exercise the sort+merge path;
    // bursts of 300 guarantee at least one merge during the test.
    size_t appends = round % 10 == 0 ? 300 : rng() % 8;
    for (size_t i = 0; i < appends; ++i) {
      int64_t ts = int64_t(rng() % 500);
      ASSERT_TRUE(table.Append(Row{Value(ts), Value(int64_t(rng() % 7))})
                      .ok());
      oracle.emplace(ts, 0);
    }
    if (rng() % 3 == 0 && table.NumRows() > 0) {
      // Deletion drops and renumbers index entries in place.
      std::unordered_set<int64_t> remove;
      std::multimap<int64_t, int64_t> surviving;
      for (size_t i = 0; i < table.NumRows(); ++i) {
        if (rng() % 4 == 0) {
          remove.insert(table.RowIdAt(i));
        } else {
          surviving.emplace(table.RowAt(i)[0].AsInt64(), 0);
        }
      }
      table.RemoveIds(remove);
      oracle = std::move(surviving);
    }
    ASSERT_TRUE(table.HasValidOrderedIndex(0));

    // A batch of random intervals — open, half-open, closed, empty,
    // inverted — each checked against both references.
    for (int probe = 0; probe < 12; ++probe) {
      int64_t a = int64_t(rng() % 520) - 10;
      int64_t b = int64_t(rng() % 520) - 10;
      bool use_lo = rng() % 4 != 0;
      bool use_hi = rng() % 4 != 0;
      bool lo_inc = rng() % 2 == 0;
      bool hi_inc = rng() % 2 == 0;
      if (!use_lo && !use_hi) use_lo = true;

      std::vector<size_t> hits;
      Value lo(a), hi(b);
      ASSERT_TRUE(table.RangeLookup(0, use_lo ? &lo : nullptr, lo_inc,
                                    use_hi ? &hi : nullptr, hi_inc, &hits));
      std::vector<size_t> expect =
          ReferenceRange(table, 0, use_lo ? &a : nullptr, lo_inc,
                         use_hi ? &b : nullptr, hi_inc);
      EXPECT_EQ(hits, expect) << "round " << round << " [" << a << "," << b
                              << "] lo=" << use_lo << " hi=" << use_hi;

      // Cross-check the total count against the oracle for closed
      // intervals (the multimap's equal_range arithmetic is independent
      // of the table's positions).
      if (use_lo && use_hi && lo_inc && hi_inc && a <= b) {
        size_t count = 0;
        for (auto it = oracle.lower_bound(a);
             it != oracle.end() && it->first <= b; ++it) {
          ++count;
        }
        EXPECT_EQ(hits.size(), count);
      }
    }
  }
}

TEST(OrderedIndexTest, MixedTypeColumnRefusesProbes) {
  // A column that mixes strings and ints has no consistent sort order
  // under Value::Compare; the index must decline so the executor falls
  // back to a scan (which surfaces the comparison TypeError exactly as an
  // unindexed table would).
  Table table(TableSchema().AddColumn("k", ValueType::kInt64));
  ASSERT_TRUE(table.Append(Row{Value(int64_t(1))}).ok());
  ASSERT_TRUE(table.Append(Row{Value(std::string("x"))}).ok());
  ASSERT_TRUE(table.BuildOrderedIndex("k").ok());
  std::vector<size_t> hits;
  Value lo(int64_t(0));
  EXPECT_FALSE(table.RangeLookup(0, &lo, true, nullptr, true, &hits));
}

TEST(OrderedIndexTest, NullBoundMatchesNothing) {
  Table table(TableSchema().AddColumn("ts", ValueType::kInt64));
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Append(Row{Value(i)}).ok());
  }
  ASSERT_TRUE(table.BuildOrderedIndex("ts").ok());
  // SQL comparison against NULL never holds: the probe answers (it is
  // exact) with zero hits.
  std::vector<size_t> hits{99};
  Value null = Value::Null();
  ASSERT_TRUE(table.RangeLookup(0, &null, true, nullptr, true, &hits));
  EXPECT_TRUE(hits.empty());
}

TEST(OrderedIndexTest, StatsTrackAppendsAndRebuilds) {
  Table table(TableSchema()
                  .AddColumn("ts", ValueType::kInt64)
                  .AddColumn("uid", ValueType::kInt64));
  table.EnableStats();
  ASSERT_NE(table.Stats(), nullptr);
  EXPECT_EQ(table.Stats()->row_count, 0u);

  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.Append(Row{Value(i), Value(i % 5)}).ok());
  }
  const TableStats* stats = table.Stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 100u);
  EXPECT_EQ(stats->columns[0].ndv, 100u);
  EXPECT_EQ(stats->columns[1].ndv, 5u);
  ASSERT_TRUE(stats->columns[0].has_range);
  EXPECT_EQ(stats->columns[0].min, 0.0);
  EXPECT_EQ(stats->columns[0].max, 99.0);

  // Deletion keeps the snapshot exact, equal to a full recomputation.
  std::unordered_set<int64_t> remove;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    if (table.RowAt(i)[0].AsInt64() >= 50) remove.insert(table.RowIdAt(i));
  }
  table.RemoveIds(remove);
  stats = table.Stats();
  ASSERT_NE(stats, nullptr);
  ExpectStatsEqual(*stats, ComputeTableStats(table), "after RemoveIds");
  EXPECT_EQ(stats->row_count, 50u);
  EXPECT_EQ(stats->columns[0].ndv, 50u);
  EXPECT_EQ(stats->columns[0].max, 49.0);
}

/// One random value for column `col` of the maintenance test: 0 = ints,
/// 1 = strings, 2 = mostly ints with rare strings (ordered index unusable
/// until a deletion removes them), 3 = doubles with some ints and rare
/// infinities. Every column carries NULLs.
Value RandomCell(size_t col, std::mt19937_64* rng) {
  uint64_t r = (*rng)();
  if (r % 9 == 0) return Value::Null();
  r /= 9;
  switch (col) {
    case 0:
      return Value(int64_t(r % 40));
    case 1:
      return Value(std::string(1, char('a' + r % 12)));
    case 2:
      if (r % 60 == 0) return Value(std::string("odd"));
      return Value(int64_t(r % 25) - 5);
    default:
      if (r % 80 == 0) return Value(std::numeric_limits<double>::infinity());
      if (r % 3 == 0) return Value(int64_t(r % 7));
      return Value(double(r % 50) / 4.0 - 3.0);
  }
}

std::unique_ptr<Table> MaintainedTable() {
  TableSchema schema;
  schema.AddColumn("i", ValueType::kInt64);
  schema.AddColumn("s", ValueType::kString);
  schema.AddColumn("m", ValueType::kInt64);
  schema.AddColumn("d", ValueType::kDouble);
  auto table = std::make_unique<Table>(std::move(schema));
  for (const char* col : {"i", "s", "m", "d"}) {
    EXPECT_TRUE(table->BuildIndex(col).ok());
    EXPECT_TRUE(table->BuildOrderedIndex(col).ok());
  }
  table->EnableStats();
  return table;
}

/// Every probe answer and the statistics of `table` (maintained through a
/// history of appends and deletions) must equal those of a table freshly
/// built from its current rows.
void ExpectMatchesFreshTable(const Table& table, const std::string& where) {
  std::unique_ptr<Table> fresh = MaintainedTable();
  for (size_t i = 0; i < table.NumRows(); ++i) {
    ASSERT_TRUE(fresh->Append(table.RowAt(i)).ok());
  }
  ExpectStatsEqual(*table.Stats(), *fresh->Stats(), where);
  ExpectStatsEqual(*table.Stats(), ComputeTableStats(table), where);

  std::vector<Value> probes = {Value::Null(), Value(2.5), Value(-3.0)};
  for (int64_t v : {3, -5, 100}) probes.emplace_back(v);
  for (const char* v : {"c", "odd", "zz"}) probes.emplace_back(std::string(v));
  std::vector<Value> highs = {Value(7.25), Value(std::string("f"))};
  highs.emplace_back(int64_t{10});
  for (size_t col = 0; col < 4; ++col) {
    for (size_t i = 0; i < table.NumRows(); i += 7) {
      probes.push_back(table.RowAt(i)[col]);
    }
  }
  for (size_t col = 0; col < 4; ++col) {
    EXPECT_EQ(table.HasValidIndex(col), fresh->HasValidIndex(col)) << where;
    EXPECT_EQ(table.HasValidOrderedIndex(col),
              fresh->HasValidOrderedIndex(col))
        << where << " column " << col;
    for (const Value& v : probes) {
      std::vector<size_t> got, want;
      bool got_ok = table.IndexLookup(col, v, &got);
      bool want_ok = fresh->IndexLookup(col, v, &want);
      ASSERT_EQ(got_ok, want_ok) << where << " column " << col;
      EXPECT_EQ(got, want) << where << " col " << col << " " << v.ToString();
    }
    for (const Value& lo : probes) {
      for (const Value& hi : highs) {
        for (int shape = 0; shape < 4; ++shape) {
          const Value* lo_p = shape == 1 ? nullptr : &lo;
          const Value* hi_p = shape == 2 ? nullptr : &hi;
          bool lo_inc = shape != 3;
          std::vector<size_t> got, want;
          bool got_ok = table.RangeLookup(col, lo_p, lo_inc, hi_p, true, &got);
          bool want_ok =
              fresh->RangeLookup(col, lo_p, lo_inc, hi_p, true, &want);
          ASSERT_EQ(got_ok, want_ok)
              << where << " column " << col << " lo " << lo.ToString()
              << " hi " << hi.ToString() << " shape " << shape;
          EXPECT_EQ(got, want)
              << where << " column " << col << " lo " << lo.ToString()
              << " hi " << hi.ToString() << " shape " << shape;
        }
      }
    }
  }
}

TEST(TableMaintenanceTest, RandomMutationsMatchFreshTable) {
  std::mt19937_64 rng(777);
  std::unique_ptr<Table> table = MaintainedTable();
  for (int round = 0; round < 120; ++round) {
    std::string where = "round " + std::to_string(round);
    uint64_t op = rng() % 10;
    if (op < 5) {
      // Bursts past the 256-row threshold force tail merges.
      size_t appends = round % 9 == 0 ? 300 : rng() % 30;
      for (size_t i = 0; i < appends; ++i) {
        Row row;
        for (size_t c = 0; c < 4; ++c) row.push_back(RandomCell(c, &rng));
        ASSERT_TRUE(table->Append(std::move(row)).ok());
      }
      where += " append";
    } else if (op < 8) {
      std::vector<int64_t> removed;
      uint64_t drop = 2 + rng() % 4;  // drop ~1/2 .. 1/5 of the rows
      for (size_t i = 0; i < table->NumRows(); ++i) {
        if (rng() % drop == 0) removed.push_back(table->RowIdAt(i));
      }
      uint64_t epoch = table->mutation_epoch();
      Table::Retraction before = table->last_retraction();
      ASSERT_EQ(table->EraseIds(removed), removed.size());
      const Table::Retraction& rt = table->last_retraction();
      if (removed.empty()) {
        // Nothing deleted: the table, its epoch and its record are as
        // they were.
        EXPECT_EQ(table->mutation_epoch(), epoch) << where;
        EXPECT_EQ(rt.valid, before.valid) << where;
        EXPECT_EQ(rt.row_ids, before.row_ids) << where;
      } else {
        EXPECT_EQ(table->mutation_epoch(), epoch + 1) << where;
        EXPECT_TRUE(rt.valid) << where;
        EXPECT_EQ(rt.from_epoch, epoch) << where;
        EXPECT_EQ(rt.row_ids, removed) << where;
      }
      where += " EraseIds";
    } else if (op < 9) {
      std::unordered_set<int64_t> remove;
      for (size_t i = 0; i < table->NumRows(); ++i) {
        if (rng() % 3 == 0) remove.insert(table->RowIdAt(i));
      }
      uint64_t epoch = table->mutation_epoch();
      size_t removed = table->RemoveIds(remove);
      if (removed > 0) {
        EXPECT_EQ(table->mutation_epoch(), epoch + 1) << where;
        EXPECT_FALSE(table->last_retraction().valid) << where;
      }
      where += " RemoveIds";
    } else {
      if (rng() % 3 == 0) {
        table->Clear();
        EXPECT_FALSE(table->last_retraction().valid) << where;
        where += " Clear";
      }
    }
    for (size_t i = 1; i < table->NumRows(); ++i) {
      ASSERT_LT(table->RowIdAt(i - 1), table->RowIdAt(i)) << where;
    }
    ExpectMatchesFreshTable(*table, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(TableMaintenanceTest, DeletingEveryValueResetsTheColumnClass) {
  // Once deletions leave only NULLs, the column has no value class: a
  // string bound is servable (empty answer) and a string value keeps the
  // index usable, exactly as in a table built from the surviving rows.
  Table table(TableSchema().AddColumn("k", ValueType::kInt64));
  ASSERT_TRUE(table.BuildOrderedIndex("k").ok());
  std::vector<int64_t> numbers;
  for (int64_t i = 0; i < 6; ++i) {
    Value v = i % 2 == 0 ? Value(i) : Value::Null();
    Result<int64_t> id = table.Append(Row{v});
    ASSERT_TRUE(id.ok());
    if (i % 2 == 0) numbers.push_back(*id);
  }
  Value text(std::string("m"));
  std::vector<size_t> hits;
  EXPECT_FALSE(table.RangeLookup(0, &text, true, nullptr, true, &hits));
  ASSERT_EQ(table.EraseIds(numbers), 3u);
  ASSERT_TRUE(table.RangeLookup(0, &text, true, nullptr, true, &hits));
  EXPECT_TRUE(hits.empty());
  ASSERT_TRUE(table.Append(Row{Value(std::string("x"))}).ok());
  EXPECT_TRUE(table.HasValidOrderedIndex(0));
  ASSERT_TRUE(table.RangeLookup(0, &text, true, nullptr, true, &hits));
  EXPECT_EQ(hits, std::vector<size_t>{3});
}

TEST(TableMaintenanceTest, LowerBoundRowIdFollowsDeletions) {
  Table table(TableSchema().AddColumn("v", ValueType::kInt64));
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Append(Row{Value(i)}).ok());
  }
  EXPECT_EQ(table.next_row_id(), 10);
  ASSERT_EQ(table.EraseIds({0, 3, 4, 6, 7}), 5u);
  EXPECT_EQ(table.LowerBoundRowId(0), 0u);
  EXPECT_EQ(table.LowerBoundRowId(3), 2u);
  EXPECT_EQ(table.LowerBoundRowId(5), 2u);
  EXPECT_EQ(table.LowerBoundRowId(6), 3u);
  EXPECT_EQ(table.LowerBoundRowId(10), 5u);
  EXPECT_EQ(table.last_retraction().row_ids,
            (std::vector<int64_t>{0, 3, 4, 6, 7}));
}

}  // namespace
}  // namespace datalawyer
