#include "common/value_hash.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "exec/engine.h"
#include "storage/table.h"

namespace datalawyer {
namespace {

// The shared functor's contract (see Value::Hash): hash is consistent with
// operator==, and additionally int64/double holding the same number hash
// alike. Every equality container in the engine — the usage-log hash
// indexes and the executor's hash joins — keys on this one functor.
TEST(ValueHashTest, HashConsistentWithEquality) {
  EXPECT_EQ(ValueHash()(Value(int64_t{7})), ValueHash()(Value(int64_t{7})));
  EXPECT_EQ(ValueHash()(Value("abc")), ValueHash()(Value("abc")));
  EXPECT_EQ(ValueHash()(Value::Null()), ValueHash()(Value::Null()));
  // The documented extra: integral doubles collide with their int64 twin
  // (required so a future Compare-based equal_to could match them).
  EXPECT_EQ(ValueHash()(Value(int64_t{7})), ValueHash()(Value(7.0)));
}

TEST(ValueHashTest, RowHashMixesValueHash) {
  Row a = {Value(int64_t{1}), Value("x")};
  Row b = {Value(int64_t{1}), Value("x")};
  EXPECT_EQ(RowHash()(a), RowHash()(b));
  // Cross-representation rows hash alike (per-value collision carries
  // through the mixing), even though operator== is type-strict.
  Row c = {Value(1.0), Value("x")};
  EXPECT_EQ(RowHash()(a), RowHash()(c));
  Row d = {Value("x"), Value(int64_t{1})};  // order matters
  EXPECT_NE(RowHash()(a), RowHash()(d));
}

// Pins key equality across the two call sites that used to carry private
// copies of the functor: a key that matches through the table's hash index
// matches through the executor's hash join, and both follow SQL `=` — the
// int key 1 meets the double key 1.0, as the scan filter says it does.
TEST(ValueHashTest, IndexProbeAndHashJoinAgree) {
  Database db;
  Engine engine(&db);
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE TABLE ints (k INT, tag TEXT);
    INSERT INTO ints VALUES (1, 'one'), (2, 'two');
    CREATE TABLE more_ints (k INT, tag TEXT);
    INSERT INTO more_ints VALUES (1, 'uno'), (3, 'tres');
    CREATE TABLE doubles (k DOUBLE, tag TEXT);
    INSERT INTO doubles VALUES (1.0, 'ein'), (3.0, 'drei');
  )sql")
                  .ok());
  Table* ints = db.FindTable("ints");
  ASSERT_TRUE(ints->BuildIndex("k").ok());

  // Same-type key: the index finds it, and so does the join.
  std::vector<size_t> hits;
  ASSERT_TRUE(ints->IndexLookup(0, Value(int64_t{1}), &hits));
  EXPECT_EQ(hits.size(), 1u);
  auto joined = engine.ExecuteSql(
      "SELECT ints.tag, more_ints.tag FROM ints, more_ints "
      "WHERE ints.k = more_ints.k");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->rows.size(), 1u);
  EXPECT_EQ(joined->rows[0][1].AsString(), "uno");

  // Cross-representation key: both sites make the SQL `=` decision — the
  // index probe finds the int row, and the int/double hash join matches
  // it, as the filter `ints.k = 1.0` does.
  hits.clear();
  ASSERT_TRUE(ints->IndexLookup(0, Value(1.0), &hits));
  EXPECT_EQ(hits, std::vector<size_t>{0});
  auto cross = engine.ExecuteSql(
      "SELECT ints.tag, doubles.tag FROM ints, doubles "
      "WHERE ints.k = doubles.k");
  ASSERT_TRUE(cross.ok()) << cross.status().ToString();
  ASSERT_EQ(cross->rows.size(), 1u);
  EXPECT_EQ(cross->rows[0][0].AsString(), "one");
  EXPECT_EQ(cross->rows[0][1].AsString(), "ein");
  auto filtered =
      engine.ExecuteSql("SELECT ints.tag FROM ints WHERE ints.k = 1.0");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ(filtered->rows.size(), 1u);
}

// Over int, double and signed-zero keys (mixed within one column, as a
// usage log can hold them): the hash join, the nested loop and the scan
// filter return the same pairs, and a hash-index probe returns the rows a
// full scan under SQL `=` finds.
TEST(ValueHashTest, SqlEqualityAcrossNumericRepresentations) {
  Database db;
  Engine engine(&db);
  ASSERT_TRUE(engine
                  .ExecuteScript("CREATE TABLE a (x DOUBLE, i INT);"
                                 "CREATE TABLE b (y DOUBLE, j INT);")
                  .ok());
  const std::vector<Value> keys = {
      Value(int64_t{0}), Value(0.0),        Value(-0.0),
      Value(int64_t{1}), Value(1.0),        Value(2.5),
      Value(int64_t{3}), Value(int64_t{-4}), Value(-4.0)};
  Table* a = db.FindTable("a");
  Table* b = db.FindTable("b");
  for (size_t k = 0; k < keys.size(); ++k) {
    ASSERT_TRUE(a->Append({keys[k], Value(int64_t(k))}).ok());
    // b holds the keys in reverse, so matches cross representations.
    ASSERT_TRUE(
        b->Append({keys[keys.size() - 1 - k], Value(int64_t(k))}).ok());
  }

  auto pairs = [&](const std::string& where) {
    auto result = engine.ExecuteSql(
        "SELECT a.i, b.j FROM a, b WHERE " + where + " ORDER BY 1, 2");
    EXPECT_TRUE(result.ok()) << where << ": " << result.status().ToString();
    std::string out;
    for (const Row& row : result->rows) {
      out += row[0].ToString() + "-" + row[1].ToString() + " ";
    }
    return out;
  };
  std::string hash_join = pairs("a.x = b.y");
  EXPECT_EQ(hash_join, pairs("a.x >= b.y AND a.x <= b.y"));
  // The filter, one b key at a time.
  std::string filtered;
  for (size_t ai = 0; ai < keys.size(); ++ai) {
    for (size_t bj = 0; bj < keys.size(); ++bj) {
      Result<Value> eq =
          Value::Compare(keys[ai], CompareOp::kEq, keys[keys.size() - 1 - bj]);
      ASSERT_TRUE(eq.ok());
      if (eq->AsBool()) {
        filtered += std::to_string(ai) + "-" + std::to_string(bj) + " ";
      }
    }
  }
  EXPECT_EQ(hash_join, filtered);
  // 0, 0.0 and -0.0 match each other (9 pairs), 1 and 1.0 (4), 2.5, 3 and
  // -4/-4.0 (4).
  EXPECT_EQ(std::count(filtered.begin(), filtered.end(), ' '), 19);

  ASSERT_TRUE(a->BuildIndex("x").ok());
  for (const Value& probe : keys) {
    std::vector<size_t> hits;
    ASSERT_TRUE(a->IndexLookup(0, probe, &hits));
    std::vector<size_t> scanned;
    for (size_t i = 0; i < a->NumRows(); ++i) {
      if (Value::Compare(a->RowAt(i)[0], CompareOp::kEq, probe)->AsBool()) {
        scanned.push_back(i);
      }
    }
    EXPECT_EQ(hits, scanned) << probe.ToString();
    // The executor's index-probe path agrees with the filter too.
    auto counted = engine.ExecuteSql("SELECT COUNT(*) FROM a WHERE a.x = " +
                                     probe.ToString());
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    EXPECT_EQ(counted->rows[0][0], Value(int64_t(scanned.size())))
        << probe.ToString();
  }
}

}  // namespace
}  // namespace datalawyer
