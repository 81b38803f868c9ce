#ifndef DATALAWYER_CORE_OPTIONS_H_
#define DATALAWYER_CORE_OPTIONS_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <thread>

#include "common/status.h"

namespace datalawyer {

/// How the active policy set is evaluated per query (compared in Fig. 5).
enum class EvalStrategy {
  /// Algorithm 3: lazy log generation with partial-policy early pruning.
  kInterleaved,
  /// One policy statement at a time.
  kSerial,
  /// All policies concatenated into a single UNION statement (Alg. 1 line 1).
  kUnion,
};

/// Optimization toggles. The defaults are "all optimizations on"
/// (DataLawyer); `NoOpt()` is the paper's baseline of Algorithm 1.
struct DataLawyerOptions {
  /// §4.1.2 + §4.4 step 3: witness-based log compaction after each query.
  bool enable_log_compaction = true;

  /// §4.1.1: rewrite time-independent policies to check only the current
  /// increment and never persist their logs.
  bool enable_time_independent = true;

  /// §4.2.2: merge same-structure policies over a Constants table.
  bool enable_unification = true;

  /// §4.3: skip generating logs whose witness is provably empty.
  bool enable_preemptive_compaction = true;

  /// §4.3 "improved partial policies": also dismiss a non-empty partial
  /// policy whose output does not depend on the current increment.
  bool enable_improved_partial = false;

  EvalStrategy strategy = EvalStrategy::kInterleaved;

  /// Simulated per-policy-statement dispatch cost in microseconds (the
  /// paper's JDBC round-trips, visible in Fig. 5). 0 = off.
  int per_call_overhead_us = 0;

  /// How the simulated dispatch cost is spent: false burns CPU (a busy
  /// wait, the historical behavior); true sleeps, modeling a *blocking*
  /// round-trip to a remote DBMS — the case where concurrent policy
  /// evaluation overlaps the latencies regardless of core count.
  bool per_call_overhead_sleep = false;

  /// Number of worker threads evaluating independent policies concurrently
  /// (0 = the same evaluation waves, run inline on the calling thread in
  /// registration order). Any value >= 1 fans each wave out over the
  /// shared pool. Every wave goes through one registration-order merge, so
  /// admit/reject decisions, errors, violation messages, and committed log
  /// contents are byte-identical across all thread counts. See
  /// DESIGN.md "Concurrency model" for what is shared and what is frozen
  /// during checking.
  int policy_threads = 0;

  /// Number of worker threads available to a *single* plan execution
  /// (0 = serial interpretation, unchanged). Any value >= 1 splits table
  /// scans, hash-join build/probe, and aggregation into morsels dispatched
  /// to the shared work-stealing scheduler; partial results are merged in
  /// deterministic morsel order, so rows, lineage, witness order, and scan
  /// stats are byte-identical to serial execution at every thread count.
  /// Policy fan-out (policy_threads) and morsel execution share one
  /// scheduler sized to the larger of the two, so the process is never
  /// oversubscribed.
  int exec_threads = 0;

  /// Rows per morsel when exec_threads > 0. A plan fragment shorter than
  /// two morsels runs serially (no dispatch is cheaper than one). Clamped
  /// to >= 1 by ClampThreadCounts().
  size_t morsel_size = 1024;

  /// Adaptive morsel sizing: feed observed per-morsel wall times back into
  /// per-operator-class suggested morsel sizes (targeting ~500 µs of work
  /// per morsel, clamped to [256, 65536] rows, EWMA-smoothed) and use them
  /// in place of morsel_size on subsequent queries. Suggestions change only
  /// between queries, and morsel boundaries never affect results (fragments
  /// merge in deterministic morsel order), so output stays byte-identical
  /// at every setting. No effect unless exec_threads > 0.
  bool adaptive_morsel_size = true;

  /// Clamps policy_threads and exec_threads into [0, hardware_concurrency]
  /// and morsel_size to >= 1, in place. An `int` thread count that is
  /// negative (a likely sign error) or absurdly large (a likely unit error
  /// — it would silently convert to a huge size_t) is a misconfiguration
  /// worth reporting: returns InvalidArgument naming every adjusted field,
  /// with the values already repaired so the caller can proceed. Returns
  /// OK when nothing needed clamping.
  Status ClampThreadCounts() {
    unsigned hw = std::thread::hardware_concurrency();
    int max_threads = int(hw == 0 ? 1 : hw);  // hw==0: unknown, assume 1
    std::string adjusted;
    auto clamp = [&](int* field, const char* name) {
      int clamped = std::min(std::max(*field, 0), max_threads);
      if (clamped != *field) {
        if (!adjusted.empty()) adjusted += ", ";
        adjusted += std::string(name) + " " + std::to_string(*field) + " -> " +
                    std::to_string(clamped);
        *field = clamped;
      }
    };
    clamp(&policy_threads, "policy_threads");
    clamp(&exec_threads, "exec_threads");
    if (morsel_size == 0) {
      if (!adjusted.empty()) adjusted += ", ";
      adjusted += "morsel_size 0 -> 1";
      morsel_size = 1;
    }
    if (adjusted.empty()) return Status::OK();
    return Status::InvalidArgument(
        "thread counts clamped to [0, " + std::to_string(max_threads) +
        "]: " + adjusted);
  }

  /// Maintain equality hash indexes on every usage-log main relation and
  /// let policy scans probe them for conjunctive equality predicates
  /// (`uid = $user`, `ts = $now` — the shape of nearly every paper policy).
  /// Pure access-path optimization: results are identical, full scans of
  /// the log become point lookups. Indexes are maintained in place on
  /// append and on compaction deletes.
  bool enable_log_indexes = true;

  /// Maintain ordered (sorted-run) indexes on the timestamp column of every
  /// usage-log main relation and let policy scans answer range predicates
  /// (`p.ts > $now - 30`, BETWEEN — the shape of every sliding-window
  /// policy) with a binary-searched range probe instead of a full scan.
  /// Same maintenance discipline as the hash indexes: kept current in
  /// place by appends and compaction deletes.
  bool enable_ordered_log_indexes = true;

  /// Maintain incremental per-policy evaluation state (see
  /// policy/incremental.h): classifiable policy plans keep materialized
  /// contribution/aggregate state folded from the committed log and answer
  /// each query from state + the staged increment in O(delta), instead of
  /// re-running the full statement over the whole log. Verdicts, messages,
  /// and witnesses are byte-identical: any shape or value the maintenance
  /// cannot mirror exactly falls back to the full evaluation. The state
  /// lives in plan-cache entries and is rebuilt whenever they rewarm.
  bool enable_incremental_eval = true;

  /// Keep per-table/per-column statistics (row counts, NDVs, min/max) on
  /// the usage-log main relations and let the planner cost access paths
  /// (seq scan vs hash probe vs range scan) and join orders from estimated
  /// cardinalities. Pure plan-choice optimization: results are identical.
  bool enable_stats_costing = true;

  /// Collect RAII spans for every pipeline phase into Tracer::Global(),
  /// exportable as Chrome trace_event JSON (about:tracing / Perfetto). Off
  /// by default: a disabled span costs one relaxed atomic load.
  bool enable_tracing = false;

  /// Record per-query counters and phase-latency histograms into
  /// MetricsRegistry::Global() (Prometheus text exposition via
  /// MetricsRegistry::ExposeText()). Off by default.
  bool enable_metrics = false;

  /// Record a structured DecisionRecord (verdict, per-policy outcome,
  /// witness rows for rejections, phase timings — see core/decision.h) for
  /// every checked query into a ring-bounded DecisionStore, queryable
  /// through the dl_decisions virtual relation and the shell's `\why`.
  /// The store is also the audit trail (`\audit`, dl-audit-v2 TSV) and the
  /// source of the slow-enforcement log. When off, the accept path pays
  /// one relaxed atomic load and allocates nothing — the same discipline
  /// as tracing.
  bool enable_decisions = true;

  /// Ring-buffer capacity of the decision store (oldest evicted first).
  size_t decision_capacity = 1024;

  /// Maximum witness tuples captured per rejecting decision; further
  /// violating rows are counted but not materialized.
  size_t decision_witness_limit = 32;

  /// Capture witness tuples with the naive (optimizer-off) re-evaluation
  /// instead of re-running the policy's cached plan. Both identify the same
  /// rows — this switch exists so the differential test can compare them
  /// byte-for-byte.
  bool decision_witness_naive = false;

  /// The slow-enforcement log lists the recorded decisions whose
  /// end-to-end latency (PhaseTimes::total_us) is at least this many
  /// microseconds; 0 disables it. A view over the decision store, not a
  /// separate ring. Shell: `\slow [n]` lists recent entries, `\slow json`
  /// dumps them; SQL: dl_slow_log.
  double slow_enforcement_threshold_us = 0;

  /// Compact the log every N successful queries instead of after each one
  /// (§5.2: "DataLawyer could compact the log less frequently or whenever
  /// the system has idle resources"). Between compactions, surviving
  /// increments are appended without pruning. Must be >= 1.
  int compaction_period = 1;

  /// Run log compaction on a background thread after the query result is
  /// returned (§5.1: "in multi-threaded systems, one can return the result
  /// of the query to the user before log compaction finishes"). The next
  /// Execute (or QueryUsageLog/Flush) waits for the pending compaction, so
  /// verdicts are unchanged; only user-visible latency drops.
  bool async_compaction = false;

  /// The paper's baseline: no compaction, no rewrites, no unification; all
  /// policies unioned and evaluated in full (but with Algorithm 1's two
  /// built-in optimizations: only mentioned logs are generated, and
  /// increments stay in memory until all policies pass).
  static DataLawyerOptions NoOpt() {
    DataLawyerOptions options;
    options.enable_log_compaction = false;
    options.enable_time_independent = false;
    options.enable_unification = false;
    options.enable_preemptive_compaction = false;
    options.enable_improved_partial = false;
    options.enable_log_indexes = false;
    options.enable_ordered_log_indexes = false;
    options.enable_stats_costing = false;
    options.enable_incremental_eval = false;
    options.strategy = EvalStrategy::kUnion;
    return options;
  }

  static DataLawyerOptions AllOptimizations() { return DataLawyerOptions{}; }
};

}  // namespace datalawyer

#endif  // DATALAWYER_CORE_OPTIONS_H_
