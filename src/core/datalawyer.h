#ifndef DATALAWYER_CORE_DATALAWYER_H_
#define DATALAWYER_CORE_DATALAWYER_H_

#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <map>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/task_scheduler.h"
#include "common/trace.h"
#include "core/decision.h"
#include "core/options.h"
#include "core/plan_cache.h"
#include "core/stats.h"
#include "exec/engine.h"
#include "exec/plan_executor.h"
#include "log/usage_log.h"
#include "policy/log_compactor.h"
#include "policy/policy.h"
#include "policy/witness.h"
#include "storage/catalog_view.h"
#include "storage/database.h"

namespace datalawyer {

/// Structured account of why a query was rejected (§6's debugging
/// direction): which policy fired, its SQL, and the error messages its
/// evaluation produced.
struct ViolationReport {
  std::string policy_name;
  std::string policy_sql;
  std::vector<std::string> messages;
};

/// The DataLawyer middleware: users submit ordinary SQL; before a query
/// runs, the usage-log increments are derived and every active policy is
/// checked; a violating query is rejected with the policy's error message,
/// otherwise the log is committed and the query executes (Eq. 1, §3.3).
///
/// Typical use:
///
///   Database db;                         // load/create data
///   DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
///                 std::make_unique<ManualClock>(), {});
///   dl.AddPolicy("p5b", "SELECT DISTINCT 'P5b violated' FROM ...");
///   auto result = dl.Execute("SELECT * FROM patients", {.uid = 7});
///   if (result.status().IsPolicyViolation()) { /* rejected */ }
class DataLawyer {
 public:
  /// `db` must outlive the middleware. `clock` defaults to a ManualClock
  /// stepping 1 per query; `log` defaults to the standard three relations.
  DataLawyer(Database* db, std::unique_ptr<UsageLog> log = nullptr,
             std::unique_ptr<Clock> clock = nullptr,
             DataLawyerOptions options = {});
  ~DataLawyer();

  DataLawyer(const DataLawyer&) = delete;
  DataLawyer& operator=(const DataLawyer&) = delete;

  /// Registers a policy; it takes effect immediately. The SQL must be a
  /// SELECT whose first output column is the violation message.
  ///
  /// Footnote 7: log history before the registration time can never trip a
  /// policy. `active_from` = -1 stamps the current clock; pass an earlier
  /// timestamp (e.g. 0) when re-registering a pre-existing policy after a
  /// restart so the restored history still counts.
  Status AddPolicy(const std::string& name, const std::string& sql,
                   int64_t active_from = -1);

  /// Registers a policy with an approximate *guard* (§6 future work): a
  /// cheaper over-approximation evaluated first — if the guard returns the
  /// empty set the policy is proven satisfied and the precise check is
  /// skipped. The caller must guarantee containment (policy non-empty ⇒
  /// guard non-empty); DataLawyer cannot verify it.
  Status AddPolicyWithGuard(const std::string& name, const std::string& sql,
                            const std::string& guard_sql);
  Status RemovePolicy(const std::string& name);
  size_t NumPolicies() const { return source_policies_.size(); }

  /// Runs the offline phase (§4.4): unification, per-policy analysis and
  /// rewrites, witness precomputation, partial-policy caches. Called
  /// automatically on the first Execute after a policy change.
  Status Prepare();

  /// Checks all policies, then executes `sql` (Eq. 1). Returns the query
  /// result, or a kPolicyViolation status carrying the error message(s).
  /// Non-SELECT statements (DDL/DML) bypass policy checking.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryContext& context);

  /// Dry run (the demo UI's "would this be allowed?" probe, [44]): checks
  /// every policy as Execute would, but never runs the query, never commits
  /// log increments, and does not advance the clock. OK = would be
  /// admitted; kPolicyViolation = would be rejected (last_violations() is
  /// populated); other codes = the SQL itself is invalid.
  Status WouldAllow(const std::string& sql, const QueryContext& context);

  /// Runs a read-only SELECT over the database *plus* the usage log and
  /// Clock — the view policies see. Does not tick the clock, generate log
  /// entries, or check policies. Intended for auditing and usage-based
  /// pricing (§2): e.g. "how many provenance tuples did user 7 consume
  /// this billing period".
  Result<QueryResult> QueryUsageLog(const std::string& sql);

  /// Renders the optimized physical plan for a SELECT over the same
  /// catalog policies see (database + usage log + clock). Shell `\plan`.
  Result<std::string> ExplainLogQuery(const std::string& sql);

  /// Renders policy <name>'s physical plan — the cached plan that every
  /// query's enforcement fan-out re-executes, when the plan cache holds
  /// one, else a freshly planned equivalent. Shell `\policies plan`.
  Result<std::string> ExplainPolicy(const std::string& name);

  /// EXPLAIN ANALYZE for a registered policy: runs one profiled evaluation
  /// of the cached policy plan (or a freshly planned equivalent) over the
  /// live policy catalog and renders each operator annotated with observed
  /// row counts, wall time, hash-table peaks, and index probes. Does not
  /// tick the clock, generate logs, or touch stats. Shell
  /// `\policies analyze <name>`.
  Result<std::string> ExplainAnalyzePolicy(const std::string& name);

  /// Phase timings of the most recent Execute / WouldAllow call. A
  /// non-SELECT statement resets them to its parse time alone.
  const ExecutionStats& last_stats() const { return stats_; }

  /// Cumulative per-policy enforcement attribution (evaluations, prunes,
  /// rejections, evaluation time), active policies first in registration
  /// order, then synthetic entries ("(union)") and removed policies.
  /// Attribution accumulates across queries; ResetPolicyStats() clears it.
  /// The per-policy eval_us values sum to the cumulative policy_cpu_us.
  std::vector<PolicyStats> PolicyReport() const;
  void ResetPolicyStats() { policy_stats_.clear(); }

  /// Decision-provenance store: one structured DecisionRecord per checked
  /// query (verdict, per-policy outcome, witness rows behind rejections,
  /// phase timings). Populated when options().enable_decisions;
  /// ring-bounded by options().decision_capacity. It is also the audit
  /// trail (DecisionStore::SaveTo/LoadFrom, shell `\audit`) and, filtered
  /// by options().slow_enforcement_threshold_us, the slow-enforcement log
  /// (dl_slow_log, shell `\slow`). Queryable in SQL as dl_decisions.
  const DecisionStore& decision_store() const { return decisions_; }
  DecisionStore* mutable_decision_store() { return &decisions_; }

  /// The catalog user queries and policies resolve through: the database's
  /// tables plus the dl_decisions / dl_policy_stats / dl_slow_log virtual
  /// system relations (real tables shadow the virtual names).
  const CatalogView* system_catalog() const { return system_catalog_.get(); }

  /// Per-policy detail behind the most recent rejection; empty when the
  /// last query was admitted.
  const std::vector<ViolationReport>& last_violations() const {
    return last_violations_;
  }

  /// Blocks until any background compaction has finished (async_compaction
  /// mode). Call before inspecting the usage log from outside.
  Status Flush();

  /// Phase stats of the most recently *completed* compaction — with
  /// async_compaction on, the per-query ExecutionStats cannot include it.
  const CompactionStats& last_compaction_stats() const {
    return last_compaction_stats_;
  }

  /// The active (post-unification) policies. Valid after Prepare().
  const std::vector<Policy>& active_policies() const { return active_; }

  UsageLog* usage_log() { return log_.get(); }
  Clock* clock() { return clock_.get(); }
  Engine* engine() { return &engine_; }
  const DataLawyerOptions& options() const { return options_; }
  void set_options(DataLawyerOptions options);

  /// The shared work-stealing scheduler, for telemetry inspection
  /// (Snapshot / AppendExposition — the shell's \workers view). nullptr
  /// until lazily created by the first query that needs it.
  const TaskScheduler* scheduler() const { return scheduler_.get(); }

  /// Adaptive morsel-sizing feedback state (the shell's \sched view).
  /// Live regardless of whether adaptive sizing is active; suggestions
  /// only steer execution when adaptive_morsel_enabled().
  const MorselFeedback& morsel_feedback() const { return morsel_feedback_; }
  /// adaptive_morsel_size && exec_threads > 0 && no env kill switch —
  /// resolved once per options change.
  bool adaptive_morsel_enabled() const { return adaptive_enabled_; }

 private:
  struct PreparedPolicy;

  /// What one policy-statement evaluation produced — messages plus the
  /// counters that fold into ExecutionStats. Produced by the const,
  /// thread-safe evaluation core so concurrent tasks never touch `stats_`;
  /// the caller merges outputs serially, in registration order.
  struct PolicyEvalOutput {
    std::vector<std::string> messages;  ///< violation messages (empty = ok)
    bool depends_on_increment = false;
    bool plan_cache_hit = false;  ///< ran from a cached physical plan
    bool incremental_hit = false;  ///< verdict served from incremental state
    bool incremental_fallback = false;  ///< state declined; full eval ran
    size_t index_probes = 0;
    size_t index_hits = 0;
    size_t range_probes = 0;
    size_t range_hits = 0;
    size_t morsels = 0;  ///< morsels this statement's plan dispatched
    double eval_us = 0;  ///< this statement's own elapsed time
  };

  /// This query's share of one attribution slot (see attribution_).
  struct QueryAttribution {
    uint64_t evaluations = 0;
    uint64_t prunes = 0;
    uint64_t rejections = 0;
    double eval_us = 0;
    uint64_t incremental_hits = 0;
    uint64_t incremental_fallbacks = 0;
  };

  /// The checked path shared by Execute and WouldAllow (`probe`): runs
  /// ExecuteChecked under the query's task group, then folds the query's
  /// attribution into policy_stats_ and records the decision — on error
  /// paths too. `stats_` must already hold this query's ts and parse time.
  Result<QueryResult> RunChecked(const std::string& sql,
                                 const SelectStmt& stmt,
                                 const QueryContext& context, int64_t ts,
                                 bool probe);

  Result<QueryResult> ExecuteChecked(const SelectStmt& stmt,
                                     const QueryContext& context, int64_t ts);

  /// Thread-safe evaluation core: runs one policy statement over `catalog`
  /// (a fresh Executor per call), applying the simulated per-call
  /// overhead. Const all the way down — shared state (tables, catalog,
  /// prepared statements) is read-only during checking, which is what makes
  /// concurrent policy evaluation sound. See DESIGN.md "Concurrency model".
  /// `span_label` names the tracing span ("policy.eval:<name>"); pass an
  /// empty string when tracing is off to skip the concatenation.
  Result<PolicyEvalOutput> EvalPolicyStatement(
      const SelectStmt& stmt, const CatalogView* catalog,
      bool check_increment_dependence, const std::string& span_label) const;

  /// Runs one evaluation wave over slots [0, n): `eval(i)` fills slot i and
  /// returns true when its outcome is decisive (an error, or a violation
  /// the merge rejects on). Runs inline in slot order when policy_threads
  /// is 0 or n is 1, else fans out over the scheduler; either way it skips
  /// every slot past the first decisive one seen so far, which the
  /// registration-order merge never reads. Adds the wave's wall time to
  /// policy_wall_us; returns the first decisive index (n if none).
  size_t RunPolicyWave(size_t n, const std::function<bool(size_t)>& eval);

  /// Folds one evaluation's counters into `stats_` (not its wall time —
  /// waves are timed once, around the whole wave) and into the per-query
  /// attribution of `attribute_to` (null = "(union)").
  void RecordEvalCounters(const PolicyEvalOutput& out,
                          const Policy* attribute_to);

  /// This query's attribution slot for `policy` (an element of active_),
  /// or the "(union)" slot when null.
  QueryAttribution& AttributionFor(const Policy* policy);

  /// Builds "policy.eval:<name>"-style span labels, skipping the string
  /// work entirely when tracing is off.
  static std::string SpanLabel(const char* prefix, const std::string& name);

  /// One-per-query observability epilogue: decision-record assembly and
  /// metrics/rollup recording, driven by `stats_`, `attribution_`, and the
  /// decision `st`.
  void RecordDecision(const std::string& sql, const QueryContext& context,
                      const Status& st, bool probe);

  /// Registers the dl_decisions / dl_policy_stats / dl_slow_log providers
  /// on system_catalog_ (constructor only). dl_decisions and dl_slow_log
  /// are two column selections over the decision store, built by one row
  /// builder; dl_slow_log keeps only records at or above the threshold.
  void RegisterSystemRelations();

  /// The shared work-stealing scheduler, created lazily with
  /// max(policy_threads, exec_threads, min_threads) workers and recreated
  /// if options ask for more. One scheduler serves the per-policy fan-out,
  /// morsel-driven plan execution, and async compaction — sizing to the
  /// larger of the two thread knobs (not their sum) is what keeps nested
  /// parallelism from oversubscribing the machine: a policy task that
  /// splits its plan into morsels enqueues them onto the same workers.
  TaskScheduler* EnsureScheduler(size_t min_threads);
  Status GenerateLog(const std::string& relation, int64_t ts,
                     const GenerationInput& input);
  /// §4.3 preemptive compaction: true if relation `name`'s increment can be
  /// proven dispensable without generating it.
  Result<bool> IncrementProvablyDispensable(const std::string& name,
                                            int64_t ts);

  /// §4.4 step 3-4 at `ts`: marks with the witness bodies, deletes, and
  /// flushes the increment — inline, folding the phase stats into `stats_`,
  /// or on the scheduler when async_compaction (see pending_compaction_).
  Status CompactLog(int64_t ts);

  const CatalogView* policy_base_catalog() const;

  /// Schema/index epoch the plan cache is validated against: the database
  /// schema version plus whether log indexes are on. A cached plan built
  /// under a different stamp is not trusted.
  uint64_t CacheStamp() const;

  /// (Re)plans every prepared policy statement — full, guard, partials,
  /// and the unified UNION statement — against a fresh policy catalog, and
  /// stamps the cache. Serial sections only (Prepare, or the head of
  /// ExecuteChecked when the stamp went stale); Lookup during the parallel
  /// evaluation fan-out is read-only. When incremental evaluation is on,
  /// also classifies each full policy statement and attaches maintenance
  /// state to incrementalizable entries.
  void WarmPlanCache();

  /// Serial head of ExecuteChecked: folds committed log growth into every
  /// attached IncrementalState and rolls window edges to `ts`, before the
  /// evaluation fan-out reads the states concurrently.
  void AdvanceIncrementalStates(int64_t ts);

  Database* db_;
  std::unique_ptr<UsageLog> log_;
  std::unique_ptr<Clock> clock_;
  DataLawyerOptions options_;
  Engine engine_;

  /// Policies as registered by the user.
  std::vector<Policy> source_policies_;

  /// Active set after the offline phase (unified where possible).
  std::vector<Policy> active_;
  std::vector<PreparedPolicy> prepared_;
  /// Constants tables synthesized by unification.
  std::vector<std::pair<std::string, std::unique_ptr<Table>>> constants_;
  std::unique_ptr<OverlayCatalog> constants_catalog_;
  /// Algorithm 1 line 1 for the kUnion strategy: π_1 ∪ ... ∪ π_k, built
  /// once per Prepare (and planned into the cache) instead of per query.
  /// Null unless the strategy unions at least two eligible policies;
  /// union_member_[i] marks which active policies it absorbed.
  std::unique_ptr<SelectStmt> union_combined_;
  std::vector<bool> union_member_;

  /// Per-policy physical plans, built at Prepare and revalidated against
  /// CacheStamp(); steady-state policy evaluation does zero parse/bind/
  /// plan work.
  PlanCache plan_cache_;
  /// False until the first WarmPlanCache — the initial population does not
  /// count as an invalidation on dl_plan_cache_misses_total.
  bool plan_cache_warmed_ = false;
  /// enable_incremental_eval && enable_plan_cache && !DL_DISABLE_INCREMENTAL
  /// — resolved once per options change so the disabled path costs one
  /// plain bool read per query (no getenv, no allocation).
  bool incremental_enabled_ = false;
  /// exec_threads > 0 && !DL_DISABLE_MORSEL — same resolve-once idiom;
  /// gates handing the scheduler to plan executors.
  bool morsel_enabled_ = false;
  /// morsel_enabled_ && adaptive_morsel_size && !DL_DISABLE_ADAPTIVE_MORSEL
  /// — gates handing the feedback accumulator to plan executors.
  bool adaptive_enabled_ = false;
  /// Adaptive morsel-sizing feedback: executors Record() into it from any
  /// thread; Roll() publishes new suggestions at the serial head of each
  /// checked query (mutable: EvalPolicyStatement is const but recording
  /// observations does not mutate logical state).
  mutable MorselFeedback morsel_feedback_;
  /// Scheduler attribution slot for the query currently in the serial
  /// Execute/WouldAllow section: everything the checked pipeline submits —
  /// policy fan-out, morsel tasks, nested submissions — is charged here,
  /// while async compaction runs detached, which is what makes
  /// ExecutionStats::steals exact instead of a process-wide delta.
  TaskGroupStats query_group_;
  /// Per-active-policy classification from the last WarmPlanCache:
  /// "incremental" or "full-only". Empty when the feature is off.
  std::map<std::string, std::string> incremental_class_;
  /// Per-log-relation main-table row counts at the last WarmPlanCache.
  /// Costed plans embed cardinality-derived choices, so a large drift
  /// (table grown or shrunk 2x past a floor of 256 rows) forces a rewarm
  /// via Database::BumpVersion.
  std::map<std::string, size_t> stats_warm_rows_;

  /// Union of active policies' log footprints.
  std::set<std::string> mentioned_logs_;
  /// The active policies' witnesses, folded once per Prepare; WarmPlanCache
  /// points each body at its cached plan.
  WitnessBodies witness_bodies_;
  bool prepared_valid_ = false;

  ExecutionStats stats_;
  std::vector<ViolationReport> last_violations_;
  int64_t queries_since_compaction_ = 0;

  /// Cumulative per-policy attribution, keyed by active-policy name.
  /// Mutated only by RunChecked's fold of attribution_, after the checked
  /// pipeline, so no locking is needed (see DESIGN.md "Concurrency model").
  std::map<std::string, PolicyStats> policy_stats_;

  /// The current query's per-policy attribution: one slot per active
  /// policy (by position in active_) plus a final "(union)" slot. Reset at
  /// the start of each checked query without reallocating, written by the
  /// serial merge sections, folded into policy_stats_ after the query, and
  /// turned into the DecisionRecord's outcomes when decisions are on.
  std::vector<QueryAttribution> attribution_;

  /// Decision-provenance store (enable_decisions).
  DecisionStore decisions_;

  /// Database tables + dl_* virtual system relations: the base catalog
  /// every bind/evaluation/execution in the checked pipeline reads
  /// through. Snapshots are invalidated at the serial head of each checked
  /// query, giving per-query snapshot semantics.
  std::unique_ptr<SystemCatalog> system_catalog_;

  /// Rejection-time witness scratch: filled by the reject path (before the
  /// staged increment is discarded), consumed by RecordDecision.
  std::vector<DecisionWitness> last_witnesses_;
  uint64_t last_witnesses_truncated_ = 0;

  /// True while WouldAllow probes: suppresses commit/compaction/execution.
  bool probe_mode_ = false;

  /// Outstanding background compaction (async_compaction mode), routed
  /// through `scheduler_`.
  std::future<Result<CompactionStats>> pending_compaction_;
  CompactionStats last_compaction_stats_;

  /// Shared work-stealing scheduler (policy evaluation fan-out, morsel
  /// execution, async compaction). Lazily created; absent entirely when
  /// all three features are off.
  std::unique_ptr<TaskScheduler> scheduler_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_CORE_DATALAWYER_H_
