// Tests of the benchmark's own code: statement streams, exact percentiles,
// and the outcome-digest comparison behind the correctness check.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "measure.h"
#include "workload.h"

namespace datalawyer {
namespace perfbench {
namespace {

std::string Render(const Stmt& s) {
  return std::string(StmtKindName(s.kind)) + "|" + std::to_string(s.uid) +
         "|" + (s.expect_reject ? "reject" : "admit") + "|" + s.sql + "\n";
}

std::string StreamText(const WorkloadSpec& spec, uint64_t seed, int n) {
  StatementStream stream(spec, seed);
  std::string out;
  for (int i = 0; i < n; ++i) out += Render(stream.Next());
  return out;
}

TEST(StatementStreamTest, SameSeedSameStreamOtherSeedOtherStream) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    SCOPED_TRACE(spec.name);
    std::string a = StreamText(spec, 7, 2000);
    EXPECT_EQ(a, StreamText(spec, 7, 2000));
    EXPECT_NE(a, StreamText(spec, 8, 2000));
  }
}

TEST(StatementStreamTest, ChurnMixAndFlipPairs) {
  StatementStream stream(*FindWorkload("churn"), 3);
  int selects = 0, rejects = 0, probes = 0, writes = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Stmt s = stream.Next();
    if (s.sql.rfind("INSERT INTO groups", 0) == 0) {
      // The DELETE of the same membership row follows immediately.
      Stmt del = stream.Next();
      ++i;
      std::string uid = s.sql.substr(s.sql.find('(') + 1);
      uid = uid.substr(0, uid.find(','));
      EXPECT_EQ(del.sql, "DELETE FROM groups WHERE uid = " + uid +
                             " AND gid = 'X'");
      writes += 2;
      continue;
    }
    switch (s.kind) {
      case StmtKind::kSelect:
        ++selects;
        rejects += s.expect_reject;
        break;
      case StmtKind::kProbe:
        ++probes;
        break;
      case StmtKind::kWrite:
        ++writes;
        break;
    }
  }
  // Shares per statement (a flip is two statements).
  EXPECT_NEAR(double(rejects) / n, 0.093, 0.01);
  EXPECT_NEAR(double(probes) / n, 0.065, 0.01);
  EXPECT_NEAR(double(writes) / n, 0.214, 0.015);
  EXPECT_NEAR(double(selects - rejects) / n, 0.628, 0.015);
}

TEST(StatementStreamTest, AnalyticRangesSpan70To650Patients) {
  StatementStream stream(*FindWorkload("analytic"), 11);
  for (int i = 0; i < 1000; ++i) {
    Stmt s = stream.Next();
    long hi = std::stol(s.sql.substr(s.sql.find("c.subject_id < ") + 15));
    long lo = std::stol(s.sql.substr(s.sql.find("c.subject_id > ") + 15));
    long width = hi - lo - 1;
    EXPECT_GE(width, 70);
    EXPECT_LE(width, 650);
    EXPECT_GE(lo, -1);
    EXPECT_LE(hi, 4000);
  }
}

TEST(ExactPercentileTest, KnownInputs) {
  std::vector<double> one_to_hundred;
  for (int i = 100; i >= 1; --i) one_to_hundred.push_back(i);  // unsorted
  EXPECT_EQ(ExactPercentile(one_to_hundred, 0.5), 50);
  EXPECT_EQ(ExactPercentile(one_to_hundred, 0.95), 95);
  EXPECT_EQ(ExactPercentile(one_to_hundred, 0.99), 99);
  EXPECT_EQ(ExactPercentile(one_to_hundred, 1.0), 100);
  EXPECT_EQ(ExactPercentile(one_to_hundred, 0.001), 1);
  EXPECT_EQ(CountAbove(one_to_hundred, 95), 5u);

  EXPECT_EQ(ExactPercentile({}, 0.5), 0);
  EXPECT_EQ(ExactPercentile({42}, 0.95), 42);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);  // nearest rank: the lower middle
  EXPECT_EQ(ExactPercentile({5, 5, 5, 9}, 0.75), 5);
  EXPECT_EQ(ExactPercentile({5, 5, 5, 9}, 0.76), 9);
}

TEST(OutcomeDigestTest, OrderInsensitiveAndFlagsOneFlippedVerdict) {
  std::vector<Row> rows = {Row{Value(int64_t{1}), Value("m")},
                           Row{Value(int64_t{2}), Value("f")}};
  std::vector<Row> reversed = {rows[1], rows[0]};
  EXPECT_EQ(OutcomeDigest(false, {}, &rows),
            OutcomeDigest(false, {}, &reversed));
  EXPECT_EQ(OutcomeDigest(true, {"a", "b"}, nullptr),
            OutcomeDigest(true, {"b", "a"}, nullptr));
  EXPECT_NE(OutcomeDigest(false, {}, &rows), OutcomeDigest(false, {}, nullptr));
  std::vector<Row> changed = {rows[0], Row{Value(int64_t{2}), Value("m")}};
  EXPECT_NE(OutcomeDigest(false, {}, &rows),
            OutcomeDigest(false, {}, &changed));

  const std::string p2 = "P2 violated";
  std::vector<uint64_t> reference, run;
  for (int i = 0; i < 50; ++i) {
    bool reject = i % 7 == 3;
    uint64_t d = reject ? OutcomeDigest(true, {p2}, nullptr)
                        : OutcomeDigest(false, {}, &rows);
    reference.push_back(d);
    run.push_back(d);
  }
  EXPECT_TRUE(DigestMismatches(run, reference).empty());
  // Flip one verdict: the admitted statement 20 comes back rejected.
  run[20] = OutcomeDigest(true, {p2}, nullptr);
  EXPECT_EQ(DigestMismatches(run, reference), std::vector<size_t>{20});
  // Only the common prefix is compared.
  run.resize(10);
  EXPECT_TRUE(DigestMismatches(run, reference).empty());
}

}  // namespace
}  // namespace perfbench
}  // namespace datalawyer
