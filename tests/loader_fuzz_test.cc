// Robustness: the two on-disk loaders — table snapshots (LoadTableInto,
// LoadDatabase) and `dl-audit-v2` audit files (DecisionStore::LoadFrom) —
// must answer every corrupted file with a Status, never a crash, and a load
// that fails must leave its target exactly as it was. A seeded loop
// corrupts valid files three ways: byte flips, swapped type tags, and
// cells or fields of the wrong type.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/decision.h"
#include "storage/persistence.h"

namespace datalawyer {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << contents;
}

/// Bytes a flip writes: the formats' own delimiters and tags, then noise.
const char kFlipBytes[] = "\t\n\\:,.-+eINDSBX019 \x00\x7f\xff";

/// Overwrites 1-3 random bytes.
std::string FlipBytes(std::string s, std::mt19937_64& rng) {
  for (int n = 1 + int(rng() % 3); n > 0 && !s.empty(); --n) {
    char b = (rng() % 4 == 0) ? char(rng() % 256)
                              : kFlipBytes[rng() % (sizeof(kFlipBytes) - 1)];
    s[rng() % s.size()] = b;
  }
  return s;
}

/// Offsets where a tab-separated field starts, past the header line.
std::vector<size_t> FieldStarts(const std::string& s) {
  std::vector<size_t> starts;
  for (size_t i = s.find('\n'); i != std::string::npos && i + 1 < s.size();
       i = s.find_first_of("\t\n", i + 1)) {
    starts.push_back(i + 1);
  }
  return starts;
}

/// Replaces the field starting at `start` (up to the next tab or newline).
std::string ReplaceField(const std::string& s, size_t start,
                         const std::string& with) {
  size_t end = s.find_first_of("\t\n", start);
  if (end == std::string::npos) end = s.size();
  return s.substr(0, start) + with + s.substr(end);
}

/// Values of every type, as snapshot cells.
const char* kCells[] = {"N:",  "I:7",     "I:-9223372036854775808",
                        "D:2.5", "D:-inf", "D:nan",
                        "S:",  "S:a\\tb", "B:1",
                        "B:0", "I:",      "X:1"};

/// Values of every kind, as audit fields.
const char* kFields[] = {"0",   "1",   "2",    "-1",  "1.5", "nan",
                         "",    "abc", "p3,p4", "\\", "9223372036854775807",
                         "1e400"};

class LoaderFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dl_loader_fuzz_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(LoaderFuzzTest, CorruptedSnapshotsFailCleanly) {
  const TableSchema schema = TableSchema()
                                 .AddColumn("i", ValueType::kInt64)
                                 .AddColumn("d", ValueType::kDouble)
                                 .AddColumn("s", ValueType::kString)
                                 .AddColumn("b", ValueType::kBool);
  Table source(schema);
  ASSERT_TRUE(source
                  .Append(Row{Value(int64_t{-42}), Value(0.25),
                              Value("tab\there\\"), Value(true)})
                  .ok());
  ASSERT_TRUE(source
                  .Append(Row{Value::Null(), Value(-1e300), Value("x:y"),
                              Value::Null()})
                  .ok());
  ASSERT_TRUE(
      source.Append(Row{Value(int64_t{7}), Value::Null(), Value::Null(),
                        Value(false)})
          .ok());
  const std::string path = (dir_ / "t.dltab").string();
  ASSERT_TRUE(SaveTable(source, path).ok());
  const std::string valid = ReadFile(path);
  const std::vector<size_t> cells = FieldStarts(valid);
  ASSERT_EQ(cells.size(), 12u);

  // The database side: one good snapshot next to the corrupted one.
  const std::filesystem::path db_dir = dir_ / "db";
  std::filesystem::create_directories(db_dir);
  ASSERT_TRUE(SaveTable(source, (db_dir / "good.dltab").string()).ok());

  std::mt19937_64 rng(18);
  size_t failed = 0;
  const int kRounds = 3000;
  for (int round = 0; round < kRounds; ++round) {
    std::string corrupt;
    switch (round % 3) {
      case 0:
        corrupt = FlipBytes(valid, rng);
        break;
      case 1: {  // a swapped type tag, body kept
        size_t at = cells[rng() % cells.size()];
        corrupt = valid;
        corrupt[at] = "IDSBNX"[rng() % 6];
        break;
      }
      default:  // a whole cell of some other type
        corrupt = ReplaceField(valid, cells[rng() % cells.size()],
                               kCells[rng() % std::size(kCells)]);
    }
    WriteFile(path, corrupt);
    SCOPED_TRACE("round " + std::to_string(round) + ": " + corrupt);

    // The target holds a row already; a failed load keeps exactly it.
    Table target(schema);
    ASSERT_TRUE(target.Append(source.RowAt(0)).ok());
    Status st = LoadTableInto(&target, path);
    if (!st.ok()) {
      ++failed;
      ASSERT_EQ(target.NumRows(), 1u) << st.ToString();
      ASSERT_EQ(target.RowAt(0), source.RowAt(0));
    }
    // Whatever loaded fits the schema: no mixed-type columns.
    for (size_t r = 0; r < target.NumRows(); ++r) {
      for (size_t c = 0; c < schema.NumColumns(); ++c) {
        const Value& v = target.RowAt(r)[c];
        ASSERT_TRUE(v.is_null() || v.type() == schema.column(c).type)
            << "row " << r << " column " << c << ": " << v.ToString();
      }
    }

    WriteFile((db_dir / "t.dltab").string(), corrupt);
    Database db;
    Status db_st = LoadDatabase(&db, db_dir.string());
    ASSERT_EQ(db_st.ok(), st.ok()) << db_st.ToString();
    if (!db_st.ok()) {
      ASSERT_TRUE(db.TableNames().empty());
    }
  }
  // Most corruptions are caught; the rest are other valid files.
  EXPECT_GT(failed, size_t(kRounds / 2));
  EXPECT_LT(failed, size_t(kRounds));
}

TEST_F(LoaderFuzzTest, CorruptedAuditFilesFailCleanly) {
  DecisionStore source(8);
  for (int i = 0; i < 3; ++i) {
    DecisionRecord r;
    r.id = source.NextId();
    r.ts = 10 * (i + 1);
    r.uid = i;
    r.admitted = i != 1;
    r.query_sql = "SELECT a\tb FROM t -- " + std::to_string(i);
    r.phases.policy_eval_us = 12.5 * i;
    if (!r.admitted) {
      PolicyOutcome o;
      o.policy = "p,3";
      o.outcome = "violated";
      r.outcomes.push_back(o);
    }
    source.Append(std::move(r));
  }
  const std::string path = (dir_ / "audit.tsv").string();
  ASSERT_TRUE(source.SaveTo(path).ok());
  const std::string valid = ReadFile(path);
  const std::vector<size_t> fields = FieldStarts(valid);
  ASSERT_EQ(fields.size(), 36u);  // 3 records x 12 fields

  std::mt19937_64 rng(18);
  size_t failed = 0;
  const int kRounds = 3000;
  for (int round = 0; round < kRounds; ++round) {
    std::string corrupt;
    switch (round % 3) {
      case 0:
        corrupt = FlipBytes(valid, rng);
        break;
      case 1: {  // two fields of one record swapped
        size_t record = rng() % 3;
        size_t a = fields[record * 12 + rng() % 12];
        size_t b = fields[record * 12 + rng() % 12];
        if (a > b) std::swap(a, b);
        size_t a_end = valid.find_first_of("\t\n", a);
        size_t b_end = valid.find_first_of("\t\n", b);
        std::string fa = valid.substr(a, a_end - a);
        std::string fb = valid.substr(b, b_end - b);
        corrupt = ReplaceField(ReplaceField(valid, b, fa), a, fb);
        break;
      }
      default:  // one field replaced by a value of some other kind
        corrupt = ReplaceField(valid, fields[rng() % fields.size()],
                               kFields[rng() % std::size(kFields)]);
    }
    WriteFile(path, corrupt);
    SCOPED_TRACE("round " + std::to_string(round) + ": " + corrupt);

    DecisionStore target(8);
    DecisionRecord kept;
    kept.id = target.NextId();
    kept.query_sql = "SELECT 1";
    target.Append(kept);
    const std::string before = target.ToJson();
    Status st = target.LoadFrom(path);
    if (!st.ok()) {
      ++failed;
      ASSERT_EQ(target.ToJson(), before) << st.ToString();
    }
  }
  EXPECT_GT(failed, size_t(kRounds / 3));
  EXPECT_LT(failed, size_t(kRounds));
}

}  // namespace
}  // namespace datalawyer
