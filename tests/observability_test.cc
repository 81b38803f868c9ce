// The enforcement-audit trail and per-policy attribution: every Execute /
// WouldAllow verdict lands in the decision store, whose dl-audit-v2 TSV
// serializer is the audit trail; every surface that shows a query's phase
// timings reads the same PhaseTimes; and PolicyReport's per-policy
// evaluation time accounts for the cumulative policy CPU time.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/datalawyer.h"
#include "core/decision.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"

namespace datalawyer {
namespace {

DecisionRecord MakeRecord(int64_t ts, const std::string& sql, bool admitted) {
  DecisionRecord r;
  r.ts = ts;
  r.uid = ts % 3;
  r.query_sql = sql;
  r.admitted = admitted;
  r.phases.user_exec_us = double(ts) * 10;
  return r;
}

void AddViolated(DecisionRecord* r, const std::string& policy) {
  PolicyOutcome o;
  o.policy = policy;
  o.outcome = "violated";
  r->outcomes.push_back(o);
}

std::string WriteFile(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(text.c_str(), f);
  std::fclose(f);
  return path;
}

/// The seven phases plus the total, in dl_decisions column order.
std::vector<double> PhaseValues(const PhaseTimes& p) {
  return {
      p.parse_us,       p.bind_us,       p.plan_us,      p.log_gen_us,
      p.policy_eval_us, p.compaction_us, p.user_exec_us, p.total_us()};
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(AuditTrailTest, SaveLoadRoundTripsEscapedFields) {
  DecisionStore store(10);
  DecisionRecord r = MakeRecord(42, "SELECT 'tab\there'\nFROM \\weird", false);
  r.id = store.NextId();
  r.probe = true;
  AddViolated(&r, "p1");
  AddViolated(&r, "p,with,commas");
  r.phases.policy_eval_us = 123.456;
  store.Append(r);
  DecisionRecord plain = MakeRecord(43, "plain", true);
  plain.id = store.NextId();
  store.Append(plain);

  std::string path = ::testing::TempDir() + "/audit_roundtrip.tsv";
  ASSERT_TRUE(store.SaveTo(path).ok());

  DecisionStore restored(10);
  ASSERT_TRUE(restored.LoadFrom(path).ok());
  ASSERT_EQ(restored.size(), 2u);
  const DecisionRecord& back = restored.records().front();
  EXPECT_EQ(back.ts, 42);
  EXPECT_EQ(back.query_sql, "SELECT 'tab\there'\nFROM \\weird");
  EXPECT_EQ(back.query_hash, Fnv1a64(back.query_sql));
  EXPECT_FALSE(back.admitted);
  EXPECT_TRUE(back.probe);
  EXPECT_EQ(back.ViolatedPolicies(),
            (std::vector<std::string>{"p1", "p,with,commas"}));
  EXPECT_EQ(back.policy, "p1");
  EXPECT_NEAR(back.phases.policy_eval_us, 123.456, 0.001);
  EXPECT_NEAR(back.total_us(), r.total_us(), 0.001);
  EXPECT_TRUE(restored.records().back().admitted);
  std::remove(path.c_str());
}

// Regression: fields containing a carriage return, a literal backslash
// followed by 't' (which must NOT round-trip to a tab), or a trailing
// backslash used to corrupt the TSV framing. The shared escaping helpers
// in common/strings must keep every such record intact.
TEST(AuditTrailTest, SaveLoadHandlesHostileEscapeSequences) {
  DecisionStore store(10);
  const std::vector<std::string> hostile = {
      "line1\r\nline2",      // carriage return + newline
      "literal \\t not tab",  // backslash-t as two characters
      "ends with backslash \\",
      "\t\n\r\\",  // every special, adjacent
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    DecisionRecord r = MakeRecord(int64_t(i), hostile[i], i % 2 == 0);
    r.id = store.NextId();
    AddViolated(&r, hostile[i]);
    store.Append(std::move(r));
  }
  std::string path = ::testing::TempDir() + "/audit_hostile.tsv";
  ASSERT_TRUE(store.SaveTo(path).ok());
  DecisionStore restored(10);
  ASSERT_TRUE(restored.LoadFrom(path).ok());
  ASSERT_EQ(restored.size(), hostile.size());
  for (size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(restored.records()[i].query_sql, hostile[i]) << i;
    EXPECT_EQ(restored.records()[i].ViolatedPolicies(),
              std::vector<std::string>{hostile[i]})
        << i;
  }
  std::remove(path.c_str());
}

// The record's own id fills the decision_id column and survives a round
// trip into a fresh store; later ids keep counting past it.
TEST(AuditTrailTest, DecisionIdRoundTripsInV2Format) {
  DecisionStore store(10);
  DecisionRecord r = MakeRecord(1, "SELECT 1", true);
  r.id = 42;
  store.Append(std::move(r));
  std::string path = ::testing::TempDir() + "/audit_v2.tsv";
  ASSERT_TRUE(store.SaveTo(path).ok());
  DecisionStore restored(10);
  ASSERT_TRUE(restored.LoadFrom(path).ok());
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.records()[0].id, 42u);
  EXPECT_EQ(restored.FindById(42), &restored.records()[0]);
  EXPECT_EQ(restored.NextId(), 43u);
  std::remove(path.c_str());
}

// A v1 trail (no decision_id column) still loads; its records get the
// store's next ids.
TEST(AuditTrailTest, LoadsV1FilesWithFreshIds) {
  std::string path = WriteFile(
      "audit_v1.tsv",
      "dl-audit-v1\n"
      "10\t3\t1\t0\t12.500\t1.000\t2.000\t3.000\t0.000\t\tSELECT 1\n");
  DecisionStore restored(10);
  ASSERT_TRUE(restored.LoadFrom(path).ok());
  ASSERT_EQ(restored.size(), 1u);
  const DecisionRecord& r = restored.records()[0];
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.ts, 10);
  EXPECT_EQ(r.uid, 3);
  EXPECT_TRUE(r.admitted);
  EXPECT_TRUE(r.ViolatedPolicies().empty());
  EXPECT_EQ(r.query_sql, "SELECT 1");
  EXPECT_DOUBLE_EQ(r.phases.user_exec_us, 1.0);
  EXPECT_DOUBLE_EQ(r.total_us(), 12.5);
  std::remove(path.c_str());
}

TEST(AuditTrailTest, LoadRejectsGarbage) {
  std::string path = WriteFile("audit_garbage.tsv", "not-an-audit-file\n");
  DecisionStore store(10);
  EXPECT_FALSE(store.LoadFrom(path).ok());
  EXPECT_EQ(store.size(), 0u);
  std::remove(path.c_str());
}

// A malformed line anywhere fails the whole load with a Status naming the
// line, and the store keeps exactly what it held before.
TEST(AuditTrailTest, LoadIsAllOrNothingAndStrict) {
  const std::string good =
      "7\t1\t1\t0\t5.000\t1.000\t1.000\t1.000\t1.000\t3\t\tSELECT 1\n";
  struct Case {
    const char* name;
    std::string body;
    const char* line;  ///< the line number the error must name
  };
  const std::vector<Case> cases = {
      {"truncated", "7\t1\t1\t0\t5.000\t1.000\n", "line 2"},
      {"non-numeric ts",
       "soon\t1\t1\t0\t5.000\t1.000\t1.000\t1.000\t1.000\t3\t\tSELECT 1\n",
       "line 2"},
      {"good lines then a bad one",
       good + good + "8\t1\t1\t0\t5.0x\t1.000\t1.000\t1.000\t1.000\t4\t\tq\n",
       "line 4"},
      {"flag other than 0/1",
       "7\t1\tyes\t0\t5.000\t1.000\t1.000\t1.000\t1.000\t3\t\tSELECT 1\n",
       "line 2"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string path = WriteFile("audit_bad.tsv", "dl-audit-v2\n" + c.body);
    DecisionStore store(10);
    DecisionRecord existing = MakeRecord(1, "kept", true);
    existing.id = store.NextId();
    store.Append(existing);

    Status st = store.LoadFrom(path);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(c.line), std::string::npos) << st.ToString();
    ASSERT_EQ(store.size(), 1u);
    EXPECT_EQ(store.total_appended(), 1u);
    EXPECT_EQ(store.records()[0].query_sql, "kept");
    EXPECT_EQ(store.NextId(), 2u);  // no id was consumed
    std::remove(path.c_str());
  }
}

class ObservabilityIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadMimicData(&db_, MimicConfig::Tiny()).ok());
  }

  std::unique_ptr<DataLawyer> Make(DataLawyerOptions options) {
    auto dl = std::make_unique<DataLawyer>(
        &db_, UsageLog::WithStandardGenerators(),
        std::make_unique<ManualClock>(0, 10), options);
    for (const auto& [name, sql] : PaperPolicies::All()) {
      EXPECT_TRUE(dl->AddPolicy(name, sql).ok());
    }
    return dl;
  }

  Database db_;
  // Admitted for uid 0; trips P2 for uid 1 (medication joined with sex).
  const std::string join_sql_ =
      "SELECT o.medication, p.sex FROM poe_order o, "
      "d_patients p WHERE o.subject_id = p.subject_id";
};

// The audit trail of a live system is its decision store serialized: one
// TSV line per verdict, the decision id in the id column, and the violated
// policies taken from the record's outcomes.
TEST_F(ObservabilityIntegrationTest, AuditTrailSerializesLiveDecisions) {
  auto dl = Make({});
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  ctx.uid = 1;
  auto rejected = dl->Execute(join_sql_, ctx);
  ASSERT_TRUE(rejected.status().IsPolicyViolation());
  ASSERT_TRUE(dl->WouldAllow(join_sql_, ctx).IsPolicyViolation());

  const DecisionStore& store = dl->decision_store();
  ASSERT_EQ(store.size(), 3u);
  std::string path = ::testing::TempDir() + "/audit_live.tsv";
  ASSERT_TRUE(store.SaveTo(path).ok());
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "dl-audit-v2");
  for (size_t i = 0; i < 3; ++i) {
    const DecisionRecord& d = store.records()[i];
    std::vector<std::string> f = SplitEscaped(lines[i + 1], '\t');
    ASSERT_EQ(f.size(), 12u);
    EXPECT_EQ(f[0], std::to_string(d.ts));
    EXPECT_EQ(f[2], d.admitted ? "1" : "0");
    EXPECT_EQ(f[3], d.probe ? "1" : "0");
    EXPECT_EQ(f[9], std::to_string(d.id));
    EXPECT_EQ(TsvUnescape(f[11]), join_sql_);
  }
  EXPECT_EQ(SplitEscaped(lines[1], '\t')[10], "");
  EXPECT_EQ(SplitEscaped(lines[2], '\t')[10], "p2");
  EXPECT_EQ(SplitEscaped(lines[3], '\t')[10], "p2");

  DecisionStore restored;
  ASSERT_TRUE(restored.LoadFrom(path).ok());
  ASSERT_EQ(restored.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(restored.records()[i].id, store.records()[i].id);
    EXPECT_EQ(restored.records()[i].admitted, store.records()[i].admitted);
    EXPECT_EQ(restored.records()[i].probe, store.records()[i].probe);
    EXPECT_EQ(restored.records()[i].policy, store.records()[i].policy);
  }
  std::remove(path.c_str());
}

// One query's phase timings, read off every surface that shows them: the
// in-memory ones agree exactly, the JSON and TSV texts agree with the
// value they print.
TEST_F(ObservabilityIntegrationTest, PhaseTimesAgreeAcrossSurfaces) {
  DataLawyerOptions options;
  options.slow_enforcement_threshold_us = 0.001;  // everything is "slow"
  auto dl = Make(options);
  QueryContext ctx;
  std::vector<PhaseTimes> from_stats;
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());
  from_stats.push_back(dl->last_stats().phases());
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  from_stats.push_back(dl->last_stats().phases());

  const DecisionStore& store = dl->decision_store();
  ASSERT_EQ(store.size(), 2u);
  const char* kColumns =
      "parse_us, bind_us, plan_us, log_gen_us, policy_eval_us, "
      "compaction_us, user_exec_us, total_us";
  auto decisions = dl->QueryUsageLog(std::string("SELECT ") + kColumns +
                                     " FROM dl_decisions");
  auto slow = dl->QueryUsageLog(std::string("SELECT ") + kColumns +
                                " FROM dl_slow_log");
  ASSERT_TRUE(decisions.ok()) << decisions.status().ToString();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_EQ(decisions->rows.size(), 2u);
  ASSERT_EQ(slow->rows.size(), 2u);
  std::string json = store.ToJson();
  std::string path = ::testing::TempDir() + "/audit_phases.tsv";
  ASSERT_TRUE(store.SaveTo(path).ok());
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);

  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i == 0 ? "rejected" : "admitted");
    const DecisionRecord& d = store.records()[i];
    EXPECT_EQ(d.admitted, i == 1);
    EXPECT_GT(d.total_us(), 0.0);
    std::vector<double> values = PhaseValues(d.phases);
    EXPECT_EQ(values, PhaseValues(from_stats[i]));
    for (size_t c = 0; c < values.size(); ++c) {
      EXPECT_EQ(decisions->rows[i][c].AsDouble(), values[c]) << c;
      EXPECT_EQ(slow->rows[i][c].AsDouble(), values[c]) << c;
    }

    // `\decisions json` prints each phase with %.3f.
    std::string timings = "\"timings_us\":{";
    const char* names = "parse bind plan log_gen policy_eval compaction "
                        "user_exec total";
    std::istringstream name_stream(names);
    std::string name;
    for (size_t c = 0; name_stream >> name; ++c) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%.3f", c ? "," : "",
                    name.c_str(), values[c]);
      timings += buf;
    }
    timings += "}";
    EXPECT_NE(d.ToJson().find(timings), std::string::npos) << d.ToJson();
    EXPECT_NE(json.find(timings), std::string::npos);

    // The audit TSV keeps total, user execution, log generation,
    // evaluation, and compaction (columns 4-8), each to its printed
    // precision.
    std::vector<std::string> f = SplitEscaped(lines[i + 1], '\t');
    ASSERT_EQ(f.size(), 12u);
    const size_t kTsvPhase[] = {7, 6, 3, 4, 5};  // indices into `values`
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(std::strtod(f[4 + c].c_str(), nullptr),
                  values[kTsvPhase[c]], 0.0005)
          << c;
    }
  }
  std::remove(path.c_str());
}

// last_stats() describes the most recent call, including a non-SELECT: an
// INSERT after a rejected SELECT must not leave the rejection behind.
TEST_F(ObservabilityIntegrationTest, NonSelectResetsLastStats) {
  auto dl = Make({});
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute("CREATE TABLE scratch (v INT)", ctx).ok());
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());
  ASSERT_TRUE(dl->last_stats().rejected);
  ASSERT_GT(dl->last_stats().policies_evaluated, 0u);

  ASSERT_TRUE(dl->Execute("INSERT INTO scratch VALUES (1)", ctx).ok());
  EXPECT_FALSE(dl->last_stats().rejected);
  EXPECT_EQ(dl->last_stats().policies_evaluated, 0u);
  EXPECT_TRUE(dl->last_stats().violations.empty());
  EXPECT_GT(dl->last_stats().parse_us, 0.0);

  // The WouldAllow bypass resets them the same way.
  ASSERT_TRUE(dl->WouldAllow(join_sql_, ctx).IsPolicyViolation());
  ASSERT_TRUE(dl->last_stats().rejected);
  ASSERT_TRUE(dl->WouldAllow("INSERT INTO scratch VALUES (2)", ctx).ok());
  EXPECT_FALSE(dl->last_stats().rejected);
  EXPECT_EQ(dl->last_stats().policies_evaluated, 0u);
}

TEST_F(ObservabilityIntegrationTest, PolicyReportAccountsForPolicyCpuTime) {
  auto dl = Make({});
  QueryContext ctx;
  double cumulative_cpu_us = 0;
  for (int i = 0; i < 6; ++i) {
    ctx.uid = i % 2;
    auto result = dl->Execute(join_sql_, ctx);
    ASSERT_TRUE(result.ok() || result.status().IsPolicyViolation());
    cumulative_cpu_us += dl->last_stats().policy_cpu_us;
  }

  std::vector<PolicyStats> report = dl->PolicyReport();
  ASSERT_FALSE(report.empty());
  // Active policies lead, in registration order.
  EXPECT_EQ(report[0].name, dl->active_policies()[0].name);

  double attributed_us = 0;
  uint64_t evaluations = 0, rejections = 0;
  for (const PolicyStats& ps : report) {
    attributed_us += ps.eval_us;
    evaluations += ps.evaluations;
    rejections += ps.rejections;
  }
  EXPECT_GT(evaluations, 0u);
  EXPECT_GT(rejections, 0u);  // uid 1 queries trip p2
  // The per-policy attribution must account for the cumulative policy CPU
  // time within 5%.
  EXPECT_GT(cumulative_cpu_us, 0.0);
  EXPECT_NEAR(attributed_us, cumulative_cpu_us, cumulative_cpu_us * 0.05);

  dl->ResetPolicyStats();
  for (const PolicyStats& ps : dl->PolicyReport()) {
    EXPECT_EQ(ps.evaluations, 0u);
    EXPECT_EQ(ps.eval_us, 0.0);
  }
}

TEST_F(ObservabilityIntegrationTest, MetricsRecordedWhenEnabled) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* queries = reg.GetCounter("dl_queries_total");
  Counter* rejected = reg.GetCounter("dl_queries_rejected_total");
  Histogram* total = reg.GetHistogram("dl_total_us");
  uint64_t queries_before = queries->value();
  uint64_t rejected_before = rejected->value();
  uint64_t observed_before = total->count();

  DataLawyerOptions options;
  options.enable_metrics = true;
  auto dl = Make(options);
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  ctx.uid = 1;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).status().IsPolicyViolation());

  EXPECT_EQ(queries->value(), queries_before + 2);
  EXPECT_EQ(rejected->value(), rejected_before + 1);
  EXPECT_EQ(total->count(), observed_before + 2);
}

// The slow-enforcement log is a view: dl_slow_log lists the decisions whose
// total met the threshold, row-for-row, and re-filters when the threshold
// changes.
TEST_F(ObservabilityIntegrationTest, SlowLogIsAThresholdViewOfDecisions) {
  DataLawyerOptions options;
  options.slow_enforcement_threshold_us = 0.001;  // everything is "slow"
  auto dl = Make(options);
  QueryContext ctx;
  ctx.uid = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  }
  auto rows = dl->QueryUsageLog(
      "SELECT uid, rejected, query, total_us FROM dl_slow_log");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const DecisionStore& store = dl->decision_store();
  ASSERT_EQ(rows->rows.size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    const DecisionRecord& d = store.records()[i];
    EXPECT_EQ(rows->rows[i][0].AsInt64(), d.uid);
    EXPECT_EQ(rows->rows[i][1].AsBool(), !d.admitted);
    EXPECT_EQ(rows->rows[i][2].AsString(), d.query_sql);
    EXPECT_EQ(rows->rows[i][3].AsDouble(), d.total_us());
  }

  options.slow_enforcement_threshold_us = 1e12;  // nothing is that slow
  dl->set_options(options);
  auto none = dl->QueryUsageLog("SELECT COUNT(*) FROM dl_slow_log");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->rows[0][0].AsInt64(), 0);
  EXPECT_EQ(store.size(), 3u);  // the decisions themselves are untouched
}

TEST_F(ObservabilityIntegrationTest, MetricsSilentWhenDisabled) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t before = reg.GetCounter("dl_queries_total")->value();
  auto dl = Make({});  // enable_metrics defaults off
  QueryContext ctx;
  ctx.uid = 0;
  ASSERT_TRUE(dl->Execute(join_sql_, ctx).ok());
  EXPECT_EQ(reg.GetCounter("dl_queries_total")->value(), before);
}

}  // namespace
}  // namespace datalawyer
