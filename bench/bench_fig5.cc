// Figure 5: policy unification. A family of per-user rate-limit policies
// (identical up to constants) is scaled from 10 to 1000 policies while the
// total query count stays fixed; we compare the average per-query policy
// evaluation time for:
//
//   not unified × {union, serial, interleaved}   — grows linearly
//   unified     × {serial, interleaved}          — stays constant
//
// A simulated per-policy-statement dispatch cost (the paper's JDBC calls)
// makes the serial-vs-union gap visible, as in the paper.
//
// Exits non-zero when uni;interleaved exceeds kMaxUnifiedInterleavedRatio
// times uni;serial at 1000 policies: the unified policy's round-0 partial
// reads only Constants and the clock, so interleaving must not run it. The
// ratio of two cells of one run does not depend on the machine.

#include <cstdio>

#include "bench/harness.h"

namespace datalawyer {
namespace bench {
namespace {

constexpr int kTotalQueries = 200;
constexpr int kPerCallOverheadUs = 50;
constexpr double kMaxUnifiedInterleavedRatio = 1.5;

double RunConfig(int n_policies, bool unified, EvalStrategy strategy) {
  DataLawyerOptions options = DataLawyerOptions::AllOptimizations();
  options.enable_unification = unified;
  options.strategy = strategy;
  options.per_call_overhead_us = kPerCallOverheadUs;

  Database db;
  if (!LoadMimicData(&db, BenchConfig()).ok()) std::abort();
  auto dl = MakeSystem(&db, options);
  for (int u = 0; u < n_policies; ++u) {
    if (!dl->AddPolicy("rate" + std::to_string(u),
                       PaperPolicies::RateLimitForUser(u, 1000, 350))
             .ok()) {
      std::abort();
    }
  }

  double eval_ms = 0;
  for (int q = 0; q < kTotalQueries; ++q) {
    // Users rotate so each policy's subject appears in the log.
    ExecutionStats stats =
        RunOne(dl.get(), PaperQueries::W1(), q % n_policies);
    eval_ms += stats.policy_eval_ms();
  }
  return eval_ms / kTotalQueries;
}

}  // namespace
}  // namespace bench
}  // namespace datalawyer

int main() {
  using namespace datalawyer;
  using namespace datalawyer::bench;

  std::printf(
      "Figure 5: mean policy evaluation time (ms/query) vs. number of "
      "unifiable policies\n(%d W1 queries per cell, simulated per-statement "
      "dispatch cost %dus)\n\n",
      kTotalQueries, kPerCallOverheadUs);
  std::printf("%-10s %16s %16s %16s %16s %16s\n", "#policies", "uni;serial",
              "uni;interleaved", "no-uni;union", "no-uni;serial",
              "no-uni;interleaved");

  double ratio = 0;
  for (int n : {10, 100, 1000}) {
    double u_serial = RunConfig(n, true, EvalStrategy::kSerial);
    double u_inter = RunConfig(n, true, EvalStrategy::kInterleaved);
    double n_union = RunConfig(n, false, EvalStrategy::kUnion);
    double n_serial = RunConfig(n, false, EvalStrategy::kSerial);
    double n_inter = RunConfig(n, false, EvalStrategy::kInterleaved);
    std::printf("%-10d %16.3f %16.3f %16.3f %16.3f %16.3f\n", n, u_serial,
                u_inter, n_union, n_serial, n_inter);
    std::fflush(stdout);
    ratio = u_inter / u_serial;
  }

  std::printf(
      "\nExpected shape: the non-unified strategies grow roughly linearly "
      "in the policy count (union cheapest, interleaved costliest); the "
      "unified ones stay flat.\n");
  std::printf(
      "uni;interleaved / uni;serial at 1000 policies: %.2f (max %.2f)\n",
      ratio, kMaxUnifiedInterleavedRatio);
  if (ratio > kMaxUnifiedInterleavedRatio) {
    std::fprintf(stderr, "FAIL: unified interleaving costs %.2fx serial\n",
                 ratio);
    return 1;
  }
  return 0;
}
