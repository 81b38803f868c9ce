// Figure 3: the cost of the three log-compaction phases (mark / delete /
// insert) for the time-dependent policies P1, P5, P6 over queries W1..W4
// (uid=1), plus compaction's share of the total policy-checking + query
// time. Time-independent policies (P2, P3, P4) need no log pruning and are
// therefore absent, as in the paper.
//
// Emits BENCH_fig3.json (via EmitJson, with the compaction phases split)
// for bench/compare_baseline.py. Exits 1 when any W1 cell's mark exceeds
// kMaxW1MarkShare of that cell's total: marking stamps only the new rows,
// so on a point lookup it must stay a small part of the query.

#include <cstdio>

#include "bench/harness.h"

int main() {
  using namespace datalawyer;
  using namespace datalawyer::bench;

  // A ratio of two phases of one run, so it does not depend on the machine.
  // A mark that ran every witness over the whole log took 52-72% of a W1
  // query; stamping the new rows takes about 15% (smoke, Release).
  constexpr double kMaxW1MarkShare = 0.35;
  constexpr int kQueries = 30;
  std::printf(
      "Figure 3: log compaction phase times (ms), steady-state mean over "
      "%d queries, uid=1\n",
      kQueries / 2);
  std::printf("%-8s %9s %9s %9s %9s %12s %10s\n", "config", "mark", "delete",
              "insert", "total", "pct_of_total", "mark_share");

  bool failed = false;
  for (int p : {1, 5, 6}) {
    for (int w = 1; w <= 4; ++w) {
      Database db;
      if (!LoadMimicData(&db, BenchConfig()).ok()) std::abort();
      auto dl = MakeSystem(&db, DataLawyerOptions::AllOptimizations());
      if (!dl->AddPolicy("p", PolicyByIndex(p)).ok()) std::abort();

      std::vector<ExecutionStats> tail;
      for (int q = 0; q < kQueries; ++q) {
        ExecutionStats stats = RunOne(dl.get(), QueryByIndex(w), 1);
        if (q < kQueries / 2) continue;  // warm-up to steady state
        tail.push_back(stats);
      }
      double mark = 0, del = 0, ins = 0, total = 0;
      for (const ExecutionStats& stats : tail) {
        mark += stats.compact_mark_ms;
        del += stats.compact_delete_ms;
        ins += stats.compact_insert_ms;
        total += stats.total_ms();
      }
      double n = double(tail.size());
      mark /= n;
      del /= n;
      ins /= n;
      total /= n;
      double pct = total > 0 ? 100.0 * (mark + del + ins) / total : 0;
      double share = total > 0 ? mark / total : 0;
      std::printf("P%d.W%-5d %9.3f %9.3f %9.3f %9.3f %11.1f%% %9.1f%%\n", p, w,
                  mark, del, ins, total, pct, 100.0 * share);
      EmitJson("fig3", "P" + std::to_string(p) + ".W" + std::to_string(w),
               tail, /*compaction_split=*/true);
      if (w == 1 && share > kMaxW1MarkShare) {
        std::printf("FAIL: P%d.W1 mark is %.1f%% of the query (bound %.0f%%)\n",
                    p, 100.0 * share, 100.0 * kMaxW1MarkShare);
        failed = true;
      }
    }
  }
  return failed ? 1 : 0;
}
