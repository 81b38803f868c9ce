#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "core/datalawyer.h"
#include "storage/persistence.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dl_persist_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PersistenceTest, TableRoundTripPreservesValuesAndTypes) {
  Table table(TableSchema()
                  .AddColumn("i", ValueType::kInt64)
                  .AddColumn("d", ValueType::kDouble)
                  .AddColumn("s", ValueType::kString)
                  .AddColumn("b", ValueType::kBool));
  ASSERT_TRUE(table
                  .Append(Row{Value(int64_t{-42}), Value(3.141592653589793),
                              Value("plain"), Value(true)})
                  .ok());
  ASSERT_TRUE(table
                  .Append(Row{Value::Null(), Value::Null(), Value::Null(),
                              Value::Null()})
                  .ok());
  ASSERT_TRUE(table
                  .Append(Row{Value(int64_t{0}), Value(-0.5),
                              Value("tab\tnewline\nback\\slash"),
                              Value(false)})
                  .ok());

  std::string path = (dir_ / "t.dltab").string();
  ASSERT_TRUE(SaveTable(table, path).ok());

  Table loaded(table.schema());
  ASSERT_TRUE(LoadTableInto(&loaded, path).ok());
  ASSERT_EQ(loaded.NumRows(), table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    EXPECT_EQ(loaded.RowAt(r), table.RowAt(r)) << "row " << r;
  }

  auto schema = LoadSchema(path);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->ToString(), table.schema().ToString());
}

TEST_F(PersistenceTest, DatabaseRoundTrip) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());
  ASSERT_TRUE(SaveDatabase(db, dir_.string()).ok());

  Database restored;
  ASSERT_TRUE(LoadDatabase(&restored, dir_.string()).ok());
  EXPECT_EQ(restored.TableNames(), db.TableNames());
  for (const std::string& name : db.TableNames()) {
    const Table* a = db.FindTable(name);
    const Table* b = restored.FindTable(name);
    ASSERT_EQ(a->NumRows(), b->NumRows()) << name;
    for (size_t r = 0; r < std::min<size_t>(a->NumRows(), 20); ++r) {
      EXPECT_EQ(a->RowAt(r), b->RowAt(r)) << name << " row " << r;
    }
  }
}

TEST_F(PersistenceTest, LoadErrors) {
  Table table(TableSchema().AddColumn("a", ValueType::kInt64));
  EXPECT_EQ(LoadTableInto(&table, (dir_ / "missing.dltab").string()).code(),
            StatusCode::kNotFound);
  Database db;
  EXPECT_FALSE(LoadDatabase(&db, (dir_ / "nodir").string()).ok());

  // Arity mismatch between file and table schema.
  Table two(TableSchema()
                .AddColumn("a", ValueType::kInt64)
                .AddColumn("b", ValueType::kInt64));
  ASSERT_TRUE(SaveTable(two, (dir_ / "two.dltab").string()).ok());
  EXPECT_FALSE(LoadTableInto(&table, (dir_ / "two.dltab").string()).ok());

  // A cell body must parse completely: no trailing garbage, no blanks, no
  // overflow, and booleans are exactly 0 or 1.
  Table typed(TableSchema()
                  .AddColumn("i", ValueType::kInt64)
                  .AddColumn("d", ValueType::kDouble)
                  .AddColumn("b", ValueType::kBool));
  std::string path = (dir_ / "typed.dltab").string();
  auto load_row = [&](const std::string& row) {
    EXPECT_TRUE(SaveTable(typed, path).ok());
    std::ofstream(path, std::ios::app) << row << "\n";
    Table loaded(typed.schema());
    return LoadTableInto(&loaded, path);
  };
  ASSERT_TRUE(load_row("I:12\tD:1.5\tB:1").ok());
  for (const char* row :
       {"I:12x\tD:1.5\tB:1", "I:abc\tD:1.5\tB:1", "I:\tD:1.5\tB:1",
        "I: 12\tD:1.5\tB:1", "I:99999999999999999999\tD:1.5\tB:1",
        "I:12\tD:1.5q\tB:1", "I:12\tD:\tB:1", "I:12\tD:infinity\tB:1",
        "I:12\tD:1.5\tB:7", "I:12\tD:1.5\tB:"}) {
    Status status = load_row(row);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << row;
  }

  // The non-finite doubles SaveTable writes still load.
  Table doubles(TableSchema().AddColumn("d", ValueType::kDouble));
  const double inf = std::numeric_limits<double>::infinity();
  for (double d : {inf, -inf, std::numeric_limits<double>::quiet_NaN()}) {
    ASSERT_TRUE(doubles.Append(Row{Value(d)}).ok());
  }
  ASSERT_TRUE(SaveTable(doubles, path).ok());
  Table loaded(doubles.schema());
  ASSERT_TRUE(LoadTableInto(&loaded, path).ok());
  ASSERT_EQ(loaded.NumRows(), 3u);
  EXPECT_EQ(loaded.RowAt(0)[0].AsDouble(), inf);
  EXPECT_EQ(loaded.RowAt(1)[0].AsDouble(), -inf);
  EXPECT_TRUE(std::isnan(loaded.RowAt(2)[0].AsDouble()));
}

// SaveTable ends every line with '\n', so a file cut at any byte either
// ends on a line boundary — a shorter, valid table — or holds a torn line,
// which must fail the load: "S:world" cut to "S:wor" would otherwise load
// the value 'wor'.
TEST_F(PersistenceTest, TornFileRejectedAtEveryOffset) {
  Table table(TableSchema()
                  .AddColumn("i", ValueType::kInt64)
                  .AddColumn("s", ValueType::kString)
                  .AddColumn("d", ValueType::kDouble));
  ASSERT_TRUE(
      table.Append(Row{Value(int64_t{12345}), Value("hello"), Value(0.25)})
          .ok());
  ASSERT_TRUE(
      table.Append(Row{Value(int64_t{67890}), Value("world"), Value::Null()})
          .ok());
  std::string path = (dir_ / "torn.dltab").string();
  ASSERT_TRUE(SaveTable(table, path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_EQ(full.back(), '\n');

  size_t complete = 0;  // cuts that ended on a line boundary
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << full.substr(0, cut);
    Table loaded(table.schema());
    Status st = LoadTableInto(&loaded, path);
    if (cut > 0 && full[cut - 1] == '\n') {
      ++complete;
      ASSERT_TRUE(st.ok()) << "cut " << cut << ": " << st.ToString();
      ASSERT_EQ(loaded.NumRows(), complete - 1) << "cut " << cut;
      for (size_t r = 0; r < loaded.NumRows(); ++r) {
        EXPECT_EQ(loaded.RowAt(r), table.RowAt(r)) << "cut " << cut;
      }
    } else {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "cut " << cut;
    }
  }
  EXPECT_EQ(complete, 3u);  // header, then each row
}

TEST_F(PersistenceTest, EnforcementSurvivesRestart) {
  Database db;
  ASSERT_TRUE(LoadMimicData(&db, MimicConfig::Tiny()).ok());

  // Session 1: user 7 consumes 3 of the 4 queries its rate limit allows
  // per 10000-tick window, then the "server" persists and shuts down.
  {
    DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                  std::make_unique<ManualClock>(0, 10), {});
    ASSERT_TRUE(
        dl.AddPolicy("rate", PaperPolicies::RateLimitForUser(7, 10000, 4))
            .ok());
    QueryContext ctx;
    ctx.uid = 7;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(dl.Execute(PaperQueries::W1(), ctx).ok());
    }
    ASSERT_TRUE(dl.usage_log()->SaveTo(dir_.string()).ok());
  }

  // Session 2: the restored log still counts the earlier queries — the
  // 5th overall query trips the limit.
  {
    auto log = UsageLog::WithStandardGenerators();
    ASSERT_TRUE(log->LoadFrom(dir_.string()).ok());
    EXPECT_EQ(log->main_table("users")->NumRows(), 3u);
    DataLawyer dl(&db, std::move(log), std::make_unique<ManualClock>(30, 10),
                  {});
    // Re-registering after a restart: keep the original registration time
    // so the restored history still counts toward the limit.
    ASSERT_TRUE(
        dl.AddPolicy("rate", PaperPolicies::RateLimitForUser(7, 10000, 4),
                     /*active_from=*/0)
            .ok());
    QueryContext ctx;
    ctx.uid = 7;
    EXPECT_TRUE(dl.Execute(PaperQueries::W1(), ctx).ok());   // 4th: allowed
    EXPECT_FALSE(dl.Execute(PaperQueries::W1(), ctx).ok());  // 5th: rejected
  }
}

TEST_F(PersistenceTest, MissingLogSnapshotsAreEmptyNotErrors) {
  auto log = UsageLog::WithStandardGenerators();
  ASSERT_TRUE(log->LoadFrom(dir_.string()).ok());
  EXPECT_EQ(log->main_table("users")->NumRows(), 0u);
}

}  // namespace
}  // namespace datalawyer
