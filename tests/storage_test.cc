#include <gtest/gtest.h>

#include "storage/catalog_view.h"
#include "storage/database.h"
#include "storage/table.h"

namespace datalawyer {
namespace {

TableSchema TwoCols() {
  return TableSchema()
      .AddColumn("a", ValueType::kInt64)
      .AddColumn("b", ValueType::kString);
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  TableSchema schema = TwoCols();
  EXPECT_EQ(schema.FindColumn("a"), 0u);
  EXPECT_EQ(schema.FindColumn("A"), 0u);
  EXPECT_EQ(schema.FindColumn("B"), 1u);
  EXPECT_FALSE(schema.FindColumn("c").has_value());
  EXPECT_EQ(schema.ToString(), "a INT64, b STRING");
}

TEST(TableTest, AppendAssignsStableRowIds) {
  Table table(TwoCols());
  auto id0 = table.Append(Row{Value(int64_t{1}), Value("x")});
  auto id1 = table.Append(Row{Value(int64_t{2}), Value("y")});
  auto id2 = table.Append(Row{Value(int64_t{3}), Value("z")});
  ASSERT_TRUE(id0.ok() && id1.ok() && id2.ok());
  EXPECT_EQ(*id0, 0);
  EXPECT_EQ(*id2, 2);

  // Remove the middle row: ids of survivors are unchanged; new rows get
  // fresh ids.
  EXPECT_EQ(table.RemoveIds({*id1}), 1u);
  ASSERT_EQ(table.NumRows(), 2u);
  EXPECT_EQ(table.RowIdAt(0), 0);
  EXPECT_EQ(table.RowIdAt(1), 2);
  auto id3 = table.Append(Row{Value(int64_t{4}), Value("w")});
  EXPECT_EQ(*id3, 3);
}

TEST(TableTest, AppendRejectsWrongArity) {
  Table table(TwoCols());
  EXPECT_FALSE(table.Append(Row{Value(int64_t{1})}).ok());
  EXPECT_FALSE(
      table.Append(Row{Value(int64_t{1}), Value("x"), Value(true)}).ok());
}

TEST(TableTest, EraseIdsRemovesExactlyTheGivenRows) {
  Table table(TwoCols());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Append(Row{Value(int64_t(i)), Value("r")}).ok());
  }
  EXPECT_EQ(table.EraseIds({0, 2, 4, 6, 7, 8, 9}), 7u);
  ASSERT_EQ(table.NumRows(), 3u);
  EXPECT_EQ(table.RowAt(0)[0], Value(int64_t{1}));
  EXPECT_EQ(table.RowAt(2)[0], Value(int64_t{5}));
  // Ids no row has are ignored.
  EXPECT_EQ(table.EraseIds({0, 3, 42}), 1u);
  EXPECT_EQ(table.EraseIds({1, 5}), 2u);
  EXPECT_EQ(table.NumRows(), 0u);
}

TEST(TableTest, IndexProbeAcrossAppendsAndDeletes) {
  Table table(TwoCols());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        table.Append(Row{Value(int64_t(i % 10)), Value("r")}).ok());
  }
  ASSERT_TRUE(table.BuildIndex("a").ok());
  std::vector<size_t> hits;
  ASSERT_TRUE(table.IndexLookup(0, Value(int64_t{3}), &hits));
  EXPECT_EQ(hits.size(), 10u);
  for (size_t pos : hits) {
    EXPECT_EQ(table.RowAt(pos)[0], Value(int64_t{3}));
  }
  // Miss answers true (the index is authoritative) with no positions.
  std::vector<size_t> miss;
  ASSERT_TRUE(table.IndexLookup(0, Value(int64_t{99}), &miss));
  EXPECT_TRUE(miss.empty());
  // No index on column 1.
  std::vector<size_t> none;
  EXPECT_FALSE(table.IndexLookup(1, Value("r"), &none));

  // Appends maintain the index incrementally (the usage log grows by
  // appends on every committed query).
  ASSERT_TRUE(table.Append(Row{Value(int64_t{3}), Value("new")}).ok());
  hits.clear();
  ASSERT_TRUE(table.IndexLookup(0, Value(int64_t{3}), &hits));
  EXPECT_EQ(hits.size(), 11u);
  EXPECT_EQ(hits.back(), 100u);

  // Deletions keep the index current: the removed position is dropped and
  // the survivors renumbered.
  EXPECT_EQ(table.RemoveIds({0}), 1u);
  ASSERT_TRUE(table.HasValidIndex(0));
  hits.clear();
  ASSERT_TRUE(table.IndexLookup(0, Value(int64_t{3}), &hits));
  EXPECT_EQ(hits.size(), 11u);
  EXPECT_EQ(hits.back(), 99u);
  for (size_t pos : hits) {
    EXPECT_EQ(table.RowAt(pos)[0], Value(int64_t{3}));
  }

  EXPECT_FALSE(table.BuildIndex("nope").ok());
}

TEST(DatabaseTest, CatalogOperations) {
  Database db;
  ASSERT_TRUE(db.CreateTable("T1", TwoCols()).ok());
  EXPECT_TRUE(db.HasTable("t1"));
  EXPECT_TRUE(db.HasTable("T1"));
  EXPECT_FALSE(db.CreateTable("t1", TwoCols()).ok());  // duplicate
  ASSERT_TRUE(db.CreateTable("t2", TwoCols()).ok());
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"t1", "t2"}));
  EXPECT_TRUE(db.GetTable("t1").ok());
  EXPECT_FALSE(db.GetTable("zzz").ok());
  EXPECT_EQ(db.FindTable("zzz"), nullptr);
  ASSERT_TRUE(db.DropTable("t1").ok());
  EXPECT_FALSE(db.HasTable("t1"));
  EXPECT_FALSE(db.DropTable("t1").ok());
}

TEST(ConcatRelationTest, RowIdsDistinguishParts) {
  Table main(TwoCols());
  Table delta(TwoCols());
  ASSERT_TRUE(main.Append(Row{Value(int64_t{1}), Value("m")}).ok());
  ASSERT_TRUE(main.Append(Row{Value(int64_t{2}), Value("m")}).ok());
  ASSERT_TRUE(delta.Append(Row{Value(int64_t{3}), Value("d")}).ok());

  ConcatRelation view(&main, &delta);
  ASSERT_EQ(view.NumRows(), 3u);
  EXPECT_EQ(view.RowAt(0)[1], Value("m"));
  EXPECT_EQ(view.RowAt(2)[1], Value("d"));
  EXPECT_FALSE(ConcatRelation::IsFromSecond(view.RowIdAt(0)));
  EXPECT_TRUE(ConcatRelation::IsFromSecond(view.RowIdAt(2)));
  EXPECT_EQ(ConcatRelation::SecondRowId(view.RowIdAt(2)), 0);
}

TEST(OverlayCatalogTest, OverridesWinAndFallThrough) {
  Database db;
  ASSERT_TRUE(db.CreateTable("base", TwoCols()).ok());
  DatabaseCatalog base(&db);

  OwnedRelation owned(TwoCols(), {Row{Value(int64_t{9}), Value("o")}});
  OverlayCatalog overlay(&base);
  overlay.Add("extra", &owned);
  EXPECT_NE(overlay.Find("base"), nullptr);
  EXPECT_EQ(overlay.Find("extra"), &owned);
  EXPECT_EQ(overlay.Find("EXTRA"), &owned);
  EXPECT_EQ(overlay.Find("missing"), nullptr);

  // Shadowing a base table.
  overlay.Add("base", &owned);
  EXPECT_EQ(overlay.Find("base"), &owned);

  // Overlay without a base catalog.
  OverlayCatalog bare(nullptr);
  bare.Add("only", &owned);
  EXPECT_EQ(bare.Find("only"), &owned);
  EXPECT_EQ(bare.Find("base"), nullptr);
}

}  // namespace
}  // namespace datalawyer
