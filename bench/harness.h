#ifndef DATALAWYER_BENCH_HARNESS_H_
#define DATALAWYER_BENCH_HARNESS_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/datalawyer.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"
#include "workload/paper_queries.h"

namespace datalawyer {
namespace bench {

/// True when DL_BENCH_SMOKE is set: benches shrink their dataset and query
/// counts to a CI-friendly size (seconds, not minutes). The emitted
/// BENCH_*.json keeps the same schema either way, so the baseline compare
/// script works on both.
inline bool SmokeMode() {
  static const bool smoke = std::getenv("DL_BENCH_SMOKE") != nullptr;
  return smoke;
}

/// Dataset size used by all experiment harnesses. Large enough that the
/// W1..W4 cost spectrum spans ~0.2ms to ~100ms, small enough that every
/// bench binary finishes in tens of seconds. Smoke mode shrinks it further.
inline MimicConfig BenchConfig() {
  MimicConfig config;
  if (SmokeMode()) {
    config.num_patients = 4000;
    config.num_chartevents = 40000;
  } else {
    config.num_patients = 33000;
    config.num_chartevents = 400000;
  }
  return config;
}

/// Clock ticks advanced per query; windows in Table 2 are expressed in the
/// same unit (the paper's milliseconds).
inline constexpr int64_t kClockStep = 10;

inline std::unique_ptr<DataLawyer> MakeSystem(Database* db,
                                              DataLawyerOptions options) {
  return std::make_unique<DataLawyer>(db, UsageLog::WithStandardGenerators(),
                                      std::make_unique<ManualClock>(0,
                                                                    kClockStep),
                                      options);
}

/// Runs `sql` once as `uid`, asserting policy compliance; returns the
/// per-query stats.
inline ExecutionStats RunOne(DataLawyer* dl, const std::string& sql,
                             int64_t uid) {
  QueryContext ctx;
  ctx.uid = uid;
  auto result = dl->Execute(sql, ctx);
  if (!result.ok() && !result.status().IsPolicyViolation()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return dl->last_stats();
}

struct SeriesStats {
  double mean_total_ms = 0;
  double mean_query_ms = 0;
  double mean_loggen_ms = 0;
  double mean_eval_ms = 0;
  double mean_compact_ms = 0;
};

inline SeriesStats Summarize(const std::vector<ExecutionStats>& stats) {
  SeriesStats out;
  if (stats.empty()) return out;
  for (const ExecutionStats& s : stats) {
    out.mean_total_ms += s.total_ms();
    out.mean_query_ms += s.query_exec_ms;
    out.mean_loggen_ms += s.log_gen_ms;
    out.mean_eval_ms += s.policy_eval_ms();
    out.mean_compact_ms += s.compaction_ms();
  }
  double n = double(stats.size());
  out.mean_total_ms /= n;
  out.mean_query_ms /= n;
  out.mean_loggen_ms /= n;
  out.mean_eval_ms /= n;
  out.mean_compact_ms /= n;
  return out;
}

/// Machine-readable companion to the human-readable tables: feeds the
/// per-query phase timings into log-scale histograms, prints one
/// `BENCH_JSON {...}` line (all values in microseconds) that scripts can
/// grep out of bench output without parsing the prose, and rewrites
/// BENCH_<bench>.json in the working directory with every record emitted so
/// far — the artifact bench/compare_baseline.py checks against
/// bench/baseline/. With `compaction_split`, the record also splits
/// compaction into its mark, delete and insert phases.
inline void EmitJson(const std::string& bench, const std::string& label,
                     const std::vector<ExecutionStats>& stats,
                     bool compaction_split = false) {
  MetricsRegistry registry;
  Histogram* total = registry.GetHistogram("total_us");
  Histogram* query = registry.GetHistogram("query_exec_us");
  Histogram* loggen = registry.GetHistogram("log_gen_us");
  Histogram* eval = registry.GetHistogram("policy_eval_us");
  Histogram* compact = registry.GetHistogram("compaction_us");
  for (const ExecutionStats& s : stats) {
    PhaseTimes p = s.phases();
    total->Observe(p.total_us());
    query->Observe(p.user_exec_us);
    loggen->Observe(p.log_gen_us);
    eval->Observe(p.policy_eval_us);
    compact->Observe(p.compaction_us);
    if (compaction_split) {
      registry.GetHistogram("compact_mark_us")
          ->Observe(s.compact_mark_ms * 1e3);
      registry.GetHistogram("compact_delete_us")
          ->Observe(s.compact_delete_ms * 1e3);
      registry.GetHistogram("compact_insert_us")
          ->Observe(s.compact_insert_ms * 1e3);
    }
  }
  std::string record = "{\"bench\":\"" + JsonEscape(bench) + "\",\"label\":\"" +
                       JsonEscape(label) +
                       "\",\"queries\":" + std::to_string(stats.size()) +
                       ",\"phases_us\":" + registry.ToJson() + "}";
  std::printf("BENCH_JSON %s\n", record.c_str());

  // Accumulate and rewrite the per-bench file after each emit, so a partial
  // run (crash, timeout) still leaves a valid JSON array on disk.
  static std::map<std::string, std::vector<std::string>> records;
  std::vector<std::string>& list = records[bench];
  list.push_back(record);
  std::string path = "BENCH_" + bench + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < list.size(); ++i) {
    std::fprintf(f, "%s%s\n", list[i].c_str(),
                 i + 1 < list.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

/// Writes the system's decision store to DECISIONS_<bench>.json in the
/// working directory (rewritten on each call, like BENCH_*.json). CI
/// uploads these next to the bench artifacts so a regression in the
/// numbers can be joined against the per-query decision provenance —
/// verdicts, per-policy outcomes, plan-cache behaviour, phase timings.
inline void EmitDecisions(const std::string& bench, const DataLawyer& dl) {
  std::string path = "DECISIONS_" + bench + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::string json = dl.decision_store().ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

/// Policy SQL for Table 2's P1..P6 by 1-based index.
inline std::string PolicyByIndex(int index) {
  switch (index) {
    case 1:
      return PaperPolicies::P1();
    case 2:
      return PaperPolicies::P2();
    case 3:
      return PaperPolicies::P3();
    case 4:
      return PaperPolicies::P4();
    case 5:
      return PaperPolicies::P5();
    default:
      return PaperPolicies::P6();
  }
}

/// Query SQL for Table 3's W1..W4 by 1-based index.
inline std::string QueryByIndex(int index) {
  switch (index) {
    case 1:
      return PaperQueries::W1();
    case 2:
      return PaperQueries::W2();
    case 3:
      return PaperQueries::W3();
    default:
      return PaperQueries::W4();
  }
}

}  // namespace bench
}  // namespace datalawyer

#endif  // DATALAWYER_BENCH_HARNESS_H_
