#ifndef DATALAWYER_CORE_STATS_H_
#define DATALAWYER_CORE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace datalawyer {

/// One query's end-to-end enforcement latency split into the seven pipeline
/// phases, all in microseconds. The parts sum to total_us() by
/// construction. Produced only by ExecutionStats::phases(); the decision
/// record, dl_decisions / dl_slow_log, the metrics histograms, the rollups,
/// and bench JSON all read this one shape, so they agree by construction.
struct PhaseTimes {
  double parse_us = 0;        ///< SQL text -> AST
  double bind_us = 0;         ///< binding the user query
  double plan_us = 0;         ///< plan-cache rewarm + incremental advance
  double log_gen_us = 0;      ///< usage-log generation (usage tracking)
  double policy_eval_us = 0;  ///< policy-evaluation wall time
  double compaction_us = 0;   ///< mark + delete + insert/commit
  double user_exec_us = 0;    ///< user query; after f_Provenance ran it
                              ///< (in log_gen_us), only the lineage strip

  double total_us() const {
    return parse_us + bind_us + plan_us + log_gen_us + policy_eval_us +
           compaction_us + user_exec_us;
  }
};

/// Per-query phase breakdown — the quantities plotted in the paper's
/// evaluation (query time, usage tracking, policy evaluation, and the three
/// log-compaction phases of Fig. 3).
struct ExecutionStats {
  int64_t ts = 0;

  double query_exec_ms = 0;    ///< see PhaseTimes::user_exec_us
  double log_gen_ms = 0;       ///< log-generating functions (usage tracking)
  double compact_mark_ms = 0;  ///< stamping new rows + finding expired ones
  double compact_delete_ms = 0;
  double compact_insert_ms = 0;

  /// Frontend phases of this statement, in microseconds: parsing the SQL
  /// text, binding the user query, and re-warming the plan cache when the
  /// schema/index stamp went stale (plan_us stays 0 in steady state).
  double parse_us = 0;
  double bind_us = 0;
  double plan_us = 0;
  double frontend_ms() const {
    return (parse_us + bind_us + plan_us) / 1000.0;
  }

  /// Policy-checking time, split two ways: wall = elapsed time of the
  /// evaluation phases (what the user waits for), cpu = the same
  /// evaluations summed per worker (what the machine spent). wall < cpu
  /// means the pool overlapped work; the ratio cpu/wall is the effective
  /// parallelism. Microseconds are the canonical unit; use
  /// policy_eval_ms() for display in milliseconds.
  double policy_wall_us = 0;
  double policy_cpu_us = 0;

  /// Wall time of policy evaluation in milliseconds (display convenience —
  /// the stored quantity is policy_wall_us).
  double policy_eval_ms() const { return policy_wall_us / 1000.0; }

  /// Access-path counters over all policy/guard/partial statements this
  /// query (witness-query counters live in CompactionStats).
  size_t index_probes = 0;  ///< equality conjuncts probed against an index
  size_t index_hits = 0;    ///< scans served by an index instead of a walk
  size_t range_probes = 0;  ///< range conjuncts probed against an ordered index
  size_t range_hits = 0;    ///< scans served by an ordered-index range probe

  /// Morsel-execution counters: morsels dispatched by plan fragments this
  /// query (0 when exec_threads == 0 or every fragment was below the
  /// two-morsel threshold), and this query's scheduler footprint from its
  /// task-group attribution slot — tasks it enqueued, tasks of its own
  /// that ran via a steal, and their summed submit-to-start queue latency
  /// (µs; 0 unless scheduler telemetry is on). Exact per-query counts:
  /// concurrent background compaction runs under its own group and never
  /// leaks in.
  size_t morsels = 0;
  size_t steals = 0;
  size_t sched_tasks = 0;
  uint64_t queue_wait_us = 0;

  size_t policies_evaluated = 0;  ///< policy/partial-policy statements run
  size_t policies_pruned_early = 0;
  /// §4.4 increment checks of state-backed policies (not statements):
  /// O(increment) tests of whether the staged rows generated so far can
  /// join into a policy, ahead of an early answer from its state.
  size_t increment_checks = 0;

  /// Plan-cache effectiveness: statements evaluated from a cached physical
  /// plan (zero parse/bind/plan work; every successful evaluation) vs.
  /// statements whose entry holds the error they failed to warm with, which
  /// the query then returns. Misses are 0 on every admitted or rejected
  /// query.
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;

  /// Incremental-evaluation effectiveness: full policy statements answered
  /// from maintained state + increment (hits), statements whose state
  /// declined and fell back to the full evaluation (fallbacks), and full
  /// state rebuilds forced by dependency invalidation (rebuilds).
  size_t incremental_hits = 0;
  size_t incremental_fallbacks = 0;
  size_t incremental_rebuilds = 0;
  size_t logs_generated = 0;      ///< log relations whose f_i actually ran
  size_t logs_skipped_preemptively = 0;
  size_t log_rows_staged = 0;
  size_t log_rows_flushed = 0;
  size_t log_rows_deleted = 0;

  bool rejected = false;
  std::vector<std::string> violations;  ///< error messages (1st column values)

  /// Everything except the user's query: the policy-checking overhead
  /// (frontend + log generation + evaluation + compaction). With this
  /// definition total_ms() covers the same seven phases as phases().
  double overhead_ms() const {
    return frontend_ms() + log_gen_ms + policy_eval_ms() + compact_mark_ms +
           compact_delete_ms + compact_insert_ms;
  }
  double total_ms() const { return query_exec_ms + overhead_ms(); }
  double compaction_ms() const {
    return compact_mark_ms + compact_delete_ms + compact_insert_ms;
  }

  /// The seven phases in microseconds — the only place the mixed ms/µs
  /// fields above are converted.
  PhaseTimes phases() const {
    PhaseTimes p;
    p.parse_us = parse_us;
    p.bind_us = bind_us;
    p.plan_us = plan_us;
    p.log_gen_us = log_gen_ms * 1000.0;
    p.policy_eval_us = policy_wall_us;
    p.compaction_us = compaction_ms() * 1000.0;
    p.user_exec_us = query_exec_ms * 1000.0;
    return p;
  }
};

/// Cumulative enforcement attribution for one active policy — which
/// policies are slow, which prune well, which reject queries. Maintained by
/// DataLawyer across queries (survives Prepare); snapshot via
/// DataLawyer::PolicyReport(), rendered by the shell's \policies command.
struct PolicyStats {
  std::string name;          ///< active (post-unification) policy name
  uint64_t evaluations = 0;  ///< statements run (guards, partials, full)
  uint64_t prunes = 0;       ///< dismissed early (guard/partial/increment)
  uint64_t rejections = 0;   ///< queries this policy rejected
  double eval_us = 0;        ///< cumulative per-statement evaluation time
                             ///< (sums across policies to policy_cpu_us)
  uint64_t incremental_hits = 0;       ///< verdicts served from state
  uint64_t incremental_fallbacks = 0;  ///< state declined, full eval ran
  uint64_t partials_run = 0;     ///< §4.4 partial statements π_S run
  uint64_t partials_pruned = 0;  ///< of those, the ones that dismissed it
  /// Plan classification at the last warm: "incremental", "full-only", or
  /// "off" when the feature is disabled. Filled by PolicyReport.
  std::string incremental_class;

  /// Adds `o`'s counters (not its name or class).
  PolicyStats& operator+=(const PolicyStats& o) {
    evaluations += o.evaluations;
    prunes += o.prunes;
    rejections += o.rejections;
    eval_us += o.eval_us;
    incremental_hits += o.incremental_hits;
    incremental_fallbacks += o.incremental_fallbacks;
    partials_run += o.partials_run;
    partials_pruned += o.partials_pruned;
    return *this;
  }
};

}  // namespace datalawyer

#endif  // DATALAWYER_CORE_STATS_H_
