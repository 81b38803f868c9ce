// Incremental policy evaluation: aggregate enforcement over a growing usage
// log, maintained state + per-query delta vs. full re-evaluation of the
// cached plan.
//
// Two paper policies bracket the regime:
//   - P3 (unwindowed GROUP BY aggregate over users ⋈ provenance): the full
//     path must re-join and re-group the whole history on every query — no
//     index narrows a join between two growing relations — while the
//     incremental path folds each committed increment once and answers from
//     per-group state plus the staged delta. This is the crossover headline.
//   - P5 (30-tick sliding-window COUNT DISTINCT): the full path already
//     serves the thin window slice through the ordered ts index, so the
//     incremental win is a constant factor, not asymptotic.
//
// The p5_compacted_* cells run P5 the way the system runs by default: W1
// queries over the MIMIC data with log compaction on, so every query's
// compaction deletes the rows that slid out of the window. Those deletes
// reach the incremental state as retraction deltas; after warm-up the
// state must answer every verdict (the bench aborts on any fallback or
// rebuild), and the full cells show what it saves.
//
// The emitted BENCH_incremental.json records both modes at each log size so
// the baseline compare catches a lost fast path (incremental regressing to
// full-evaluation latencies).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "exec/engine.h"

namespace datalawyer {
namespace bench {
namespace {

/// Grows the provenance main table to `rows` entries with timestamps
/// spread over [0, rows) — one entry per tick, like a steadily queried
/// system. All rows name the policies' protected table so their filters,
/// not the irid predicate, decide what is read.
void GrowProvenance(DataLawyer* dl, size_t rows) {
  Table* main = dl->usage_log()->main_table("provenance");
  if (main == nullptr) std::abort();
  for (size_t i = main->NumRows(); i < rows; ++i) {
    if (!main->Append(Row{Value(int64_t(i)), Value(int64_t(i)),
                          Value(std::string("d_patients")),
                          Value(int64_t(i % 50))})
             .ok()) {
      std::abort();
    }
  }
}

double P50EvalUs(std::vector<ExecutionStats> stats) {
  if (stats.empty()) return 0;
  std::sort(stats.begin(), stats.end(),
            [](const ExecutionStats& a, const ExecutionStats& b) {
              return a.policy_wall_us < b.policy_wall_us;
            });
  return stats[stats.size() / 2].policy_wall_us;
}

void IncrementalVsFull() {
  const std::vector<size_t> sizes =
      SmokeMode() ? std::vector<size_t>{1000, 4000}
                  : std::vector<size_t>{10000, 40000, 160000};
  const int kQueries = SmokeMode() ? 20 : 40;

  std::printf("incremental vs full: P3 (history aggregate), P5 (30-tick "
              "window), log sizes ");
  for (size_t n : sizes) std::printf("%zu ", n);
  std::printf("\n%-8s %-10s %-12s %14s %10s %10s\n", "policy", "log_rows",
              "mode", "p50_eval_us", "incr_hits", "fallbacks");

  double headline_incremental = 0;
  double headline_full = 0;
  for (const char* policy : {"p3", "p5"}) {
    for (size_t rows : sizes) {
      for (bool incremental : {true, false}) {
        DataLawyerOptions options;
        options.enable_incremental_eval = incremental;
        // Keep the grown history alive across queries: the comparison is
        // about enforcing over a long log, not about compaction pruning it.
        options.enable_log_compaction = false;
        options.enable_preemptive_compaction = false;

        Database db;
        Engine engine(&db);
        if (!engine
                 .ExecuteScript("CREATE TABLE t (v INT);"
                                "INSERT INTO t VALUES (1);")
                 .ok()) {
          std::abort();
        }
        auto dl = MakeSystem(&db, options);
        // Thresholds high enough that the policies never reject: the bench
        // measures evaluation cost, not verdicts.
        std::string sql = policy == std::string("p3")
                              ? PaperPolicies::P3(0, 1000000)
                              : PaperPolicies::P5(0, 30, 1000000);
        if (!dl->AddPolicy(policy, sql).ok()) std::abort();

        // First query prepares and warms; then the history grows and the
        // clock moves past it. The next queries absorb the stats-drift
        // rewarm (and, in incremental mode, the one-time fold of the grown
        // history into per-group state) before measurement starts.
        (void)RunOne(dl.get(), "SELECT * FROM t", 0);
        GrowProvenance(dl.get(), rows);
        static_cast<ManualClock*>(dl->clock())->AdvanceTo(int64_t(rows));
        (void)RunOne(dl.get(), "SELECT * FROM t", 0);
        (void)RunOne(dl.get(), "SELECT * FROM t", 0);

        std::vector<ExecutionStats> stats;
        size_t hits = 0;
        size_t fallbacks = 0;
        for (int q = 0; q < kQueries; ++q) {
          stats.push_back(RunOne(dl.get(), "SELECT * FROM t", 0));
          hits += stats.back().incremental_hits;
          fallbacks += stats.back().incremental_fallbacks;
        }
        if (incremental && hits == 0) {
          std::fprintf(stderr,
                       "incremental mode served no verdicts from state\n");
          std::abort();
        }
        double p50 = P50EvalUs(stats);
        std::printf("%-8s %-10zu %-12s %14.1f %10zu %10zu\n", policy, rows,
                    incremental ? "incremental" : "full", p50, hits,
                    fallbacks);
        EmitJson("incremental",
                 std::string(policy) + "_" +
                     (incremental ? "incremental" : "full") + "_n" +
                     std::to_string(rows),
                 stats);
        if (policy == std::string("p3") && rows == sizes.back()) {
          (incremental ? headline_incremental : headline_full) = p50;
        }
      }
    }
  }

  // Headline number: the crossover policy's speedup at the largest size.
  if (headline_incremental > 0) {
    std::printf("\nP3 at largest size: incremental %.1f us vs full %.1f us "
                "-> %.1fx\n",
                headline_incremental, headline_full,
                headline_full / headline_incremental);
  }
}

/// P5 under compaction: W1 lookups as uid 1 (in P5's scope) over the bench
/// dataset, compaction and every other default optimization on. Warm-up
/// fills the window so compaction deletes on every measured query.
void CompactedWindow() {
  const std::vector<int64_t> windows = {300, 3000};
  const int kQueries = SmokeMode() ? 40 : 200;
  Database db;
  if (!LoadMimicData(&db, BenchConfig()).ok()) std::abort();

  std::printf("\nP5 under compaction (W1 as uid 1), windows ");
  for (int64_t w : windows) std::printf("%lld ", static_cast<long long>(w));
  std::printf("\n%-8s %-12s %14s %10s %10s %12s\n", "window", "mode",
              "p50_eval_us", "incr_hits", "fallbacks", "rows_deleted");
  for (int64_t window : windows) {
    for (bool incremental : {true, false}) {
      DataLawyerOptions options;
      options.enable_incremental_eval = incremental;
      auto dl = MakeSystem(&db, options);
      if (!dl->AddPolicy("p5", PaperPolicies::P5(1, window, 1000000)).ok()) {
        std::abort();
      }
      const int warmup = int(window / kClockStep) + 10;
      for (int q = 0; q < warmup; ++q) {
        (void)RunOne(dl.get(), PaperQueries::W1(), 1);
      }
      std::vector<ExecutionStats> stats;
      size_t hits = 0;
      size_t fallbacks = 0;
      size_t rebuilds = 0;
      size_t rows_deleted = 0;
      for (int q = 0; q < kQueries; ++q) {
        stats.push_back(RunOne(dl.get(), PaperQueries::W1(), 1));
        hits += stats.back().incremental_hits;
        fallbacks += stats.back().incremental_fallbacks;
        rebuilds += stats.back().incremental_rebuilds;
        rows_deleted += stats.back().log_rows_deleted;
      }
      if (rows_deleted == 0) {
        std::fprintf(stderr, "compaction deleted nothing after warm-up\n");
        std::abort();
      }
      if (incremental &&
          (hits != size_t(kQueries) || fallbacks > 0 || rebuilds > 0)) {
        std::fprintf(stderr,
                     "compaction disturbed incremental state: %zu hits, %zu "
                     "fallbacks, %zu rebuilds in %d queries\n",
                     hits, fallbacks, rebuilds, kQueries);
        std::abort();
      }
      std::printf("%-8lld %-12s %14.1f %10zu %10zu %12zu\n",
                  static_cast<long long>(window),
                  incremental ? "incremental" : "full", P50EvalUs(stats), hits,
                  fallbacks, rows_deleted);
      EmitJson("incremental",
               std::string("p5_compacted_") +
                   (incremental ? "incremental" : "full") + "_w" +
                   std::to_string(window),
               stats);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace datalawyer

int main() {
  std::printf("Incremental policy evaluation bench (state + delta vs full)\n");
  datalawyer::bench::IncrementalVsFull();
  datalawyer::bench::CompactedWindow();
  return 0;
}
