#include "core/datalawyer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>
#include <unordered_set>

#include "analysis/binder.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "exec/plan_executor.h"
#include "policy/incremental.h"
#include "policy/partial_policy.h"
#include "policy/policy_analyzer.h"
#include "policy/unification.h"
#include "policy/witness.h"
#include "sql/parser.h"

namespace datalawyer {

namespace {

using SteadyTime = std::chrono::steady_clock::time_point;

SteadyTime Now() { return std::chrono::steady_clock::now(); }

double MsSince(SteadyTime start) {
  return std::chrono::duration<double, std::milli>(Now() - start).count();
}

double UsSince(SteadyTime start) {
  return std::chrono::duration<double, std::micro>(Now() - start).count();
}

void BusyWaitMicros(int us) {
  if (us <= 0) return;
  auto start = Now();
  while (std::chrono::duration_cast<std::chrono::microseconds>(Now() - start)
             .count() < us) {
  }
}

/// True if every UNION member groups explicitly — the condition under which
/// a non-monotone policy can still be pruned by an (aggregate-free) partial
/// policy: no joined rows means no groups means no output.
bool AllMembersGrouped(const SelectStmt& stmt) {
  for (const SelectStmt* member = &stmt; member != nullptr;
       member = member->union_next.get()) {
    if (member->group_by.empty()) return false;
  }
  return true;
}

void StripHaving(SelectStmt* stmt) {
  for (SelectStmt* member = stmt; member != nullptr;
       member = member->union_next.get()) {
    member->having = nullptr;
  }
}

/// One column of a decision-backed system relation: its name, type, and
/// how to read it off a DecisionRecord.
struct DecisionColumn {
  const char* name;
  ValueType type;
  Value (*get)(const DecisionRecord&);
};

using D = const DecisionRecord&;
const DecisionColumn kDecisionColumns[] = {
    {"id", ValueType::kInt64, [](D d) { return Value(int64_t(d.id)); }},
    {"ts", ValueType::kInt64, [](D d) { return Value(d.ts); }},
    {"uid", ValueType::kInt64, [](D d) { return Value(d.uid); }},
    {"verdict", ValueType::kString,
     [](D d) { return Value(std::string(d.verdict())); }},
    {"rejected", ValueType::kBool, [](D d) { return Value(!d.admitted); }},
    {"probe", ValueType::kBool, [](D d) { return Value(d.probe); }},
    {"policy", ValueType::kString,
     [](D d) { return d.policy.empty() ? Value() : Value(d.policy); }},
    {"query", ValueType::kString, [](D d) { return Value(d.query_sql); }},
    {"query_hash", ValueType::kInt64,
     [](D d) { return Value(int64_t(d.query_hash)); }},
    {"witness_count", ValueType::kInt64,
     [](D d) { return Value(int64_t(d.witnesses.size())); }},
    {"plan_cache_hits", ValueType::kInt64,
     [](D d) { return Value(int64_t(d.plan_cache_hits)); }},
    {"plan_cache_misses", ValueType::kInt64,
     [](D d) { return Value(int64_t(d.plan_cache_misses)); }},
    {"parse_us", ValueType::kDouble,
     [](D d) { return Value(d.phases.parse_us); }},
    {"bind_us", ValueType::kDouble,
     [](D d) { return Value(d.phases.bind_us); }},
    {"plan_us", ValueType::kDouble,
     [](D d) { return Value(d.phases.plan_us); }},
    {"log_gen_us", ValueType::kDouble,
     [](D d) { return Value(d.phases.log_gen_us); }},
    {"policy_eval_us", ValueType::kDouble,
     [](D d) { return Value(d.phases.policy_eval_us); }},
    {"compaction_us", ValueType::kDouble,
     [](D d) { return Value(d.phases.compaction_us); }},
    {"user_exec_us", ValueType::kDouble,
     [](D d) { return Value(d.phases.user_exec_us); }},
    {"total_us", ValueType::kDouble, [](D d) { return Value(d.total_us()); }},
    {"morsels", ValueType::kInt64,
     [](D d) { return Value(int64_t(d.morsels)); }},
    {"steals", ValueType::kInt64, [](D d) { return Value(int64_t(d.steals)); }},
    {"queue_wait_us", ValueType::kInt64,
     [](D d) { return Value(int64_t(d.queue_wait_us)); }},
};

/// The one row builder behind dl_decisions and dl_slow_log: the named
/// columns, in order, of every record whose total_us() is at least
/// `min_total_us`.
std::unique_ptr<RelationData> DecisionRelation(
    const DecisionStore& store, std::initializer_list<const char*> names,
    double min_total_us) {
  TableSchema schema;
  std::vector<const DecisionColumn*> columns;
  for (const char* name : names) {
    for (const DecisionColumn& c : kDecisionColumns) {
      if (std::strcmp(c.name, name) != 0) continue;
      schema.AddColumn(c.name, c.type);
      columns.push_back(&c);
    }
  }
  std::vector<Row> rows;
  for (const DecisionRecord& d : store.records()) {
    if (d.total_us() < min_total_us) continue;
    Row row;
    for (const DecisionColumn* c : columns) row.push_back(c->get(d));
    rows.push_back(std::move(row));
  }
  return std::make_unique<OwnedRelation>(std::move(schema), std::move(rows));
}

}  // namespace

/// Per-policy precomputation from the offline phase.
struct DataLawyer::PreparedPolicy {
  size_t policy_index = 0;  ///< into active_

  /// Can interleaved evaluation dismiss this policy from a partial result?
  bool prunable = false;

  /// §4.3 improved partial policies are sound for this policy: monotone and
  /// every pair of its log relations equi-joins on ts.
  bool improved_ok = false;

  /// prefix_touches_log[k]: the k-relation partial actually references at
  /// least one generated log relation (a prerequisite for the
  /// increment-dependence reasoning).
  std::vector<bool> prefix_touches_log;

  /// partials[k] is π_S for S = the first k generated log relations;
  /// nullptr when S covers the policy (evaluate the full statement).
  std::vector<std::unique_ptr<SelectStmt>> partials;
  /// True when the first k relations cover the policy's footprint.
  std::vector<bool> covered;

  /// Approximate guard support: the guard's log footprint, and per-prefix
  /// coverage (guard_covered[k] — the guard can run after k generations).
  std::vector<std::string> guard_relations;
  std::vector<bool> guard_covered;

  WitnessSet witnesses;
};

DataLawyer::DataLawyer(Database* db, std::unique_ptr<UsageLog> log,
                       std::unique_ptr<Clock> clock, DataLawyerOptions options)
    : db_(db),
      log_(log != nullptr ? std::move(log)
                          : UsageLog::WithStandardGenerators()),
      clock_(clock != nullptr ? std::move(clock)
                              : std::make_unique<ManualClock>()),
      options_(options),
      engine_(db),
      decisions_(options.decision_capacity) {
  // Tracing is opt-in and process-global (one timeline); an instance turns
  // it on but never off, so a default-options instance elsewhere in the
  // process cannot silence an active trace.
  if (options_.enable_tracing) Tracer::Global().set_enabled(true);
  decisions_.set_enabled(options_.enable_decisions);
  // Out-of-range thread counts are clamped rather than rejected — the
  // constructor cannot return a status, and a clamped instance is strictly
  // better than a crashed one. Callers who want the warning call
  // DataLawyerOptions::ClampThreadCounts() themselves before constructing.
  (void)options_.ClampThreadCounts();
  incremental_enabled_ = options_.enable_incremental_eval &&
                         options_.enable_plan_cache &&
                         !IncrementalDisabledByEnv();
  morsel_enabled_ =
      options_.exec_threads > 0 && !MorselExecutionDisabledByEnv();
  adaptive_enabled_ = morsel_enabled_ && options_.adaptive_morsel_size &&
                      !AdaptiveMorselSizingDisabledByEnv();
  system_catalog_ = std::make_unique<SystemCatalog>(engine_.db_catalog());
  RegisterSystemRelations();
}

DataLawyer::~DataLawyer() {
  if (pending_compaction_.valid()) pending_compaction_.wait();
}

void DataLawyer::set_options(DataLawyerOptions options) {
  options_ = options;
  prepared_valid_ = false;
  (void)options_.ClampThreadCounts();
  incremental_enabled_ = options_.enable_incremental_eval &&
                         options_.enable_plan_cache &&
                         !IncrementalDisabledByEnv();
  morsel_enabled_ =
      options_.exec_threads > 0 && !MorselExecutionDisabledByEnv();
  adaptive_enabled_ = morsel_enabled_ && options_.adaptive_morsel_size &&
                      !AdaptiveMorselSizingDisabledByEnv();
  if (options_.enable_tracing) Tracer::Global().set_enabled(true);
  decisions_.set_enabled(options_.enable_decisions);
  decisions_.set_capacity(options_.decision_capacity);
}

Status DataLawyer::AddPolicy(const std::string& name, const std::string& sql,
                             int64_t active_from) {
  for (const Policy& p : source_policies_) {
    if (p.name == name) {
      return Status::AlreadyExists("policy already registered: " + name);
    }
  }
  DL_ASSIGN_OR_RETURN(Policy policy, Policy::Parse(name, sql));

  // Validate that the policy binds against database (+ dl_* telemetry
  // relations) + log + clock. The catalog reads the log tables, which a
  // pending background compaction owns.
  DL_RETURN_NOT_OK(Flush());
  UsageLog::PolicyCatalog catalog =
      log_->MakeCatalog(system_catalog_.get(), clock_->Now());
  Binder binder(catalog.view());
  DL_RETURN_NOT_OK(binder.Bind(*policy.stmt).status());

  // Footnote 7: the policy's history starts now; earlier log entries can
  // never trip it (unless the caller restores an older registration time).
  policy.active_from = active_from >= 0 ? active_from : clock_->Now();

  source_policies_.push_back(std::move(policy));
  prepared_valid_ = false;
  return Status::OK();
}

Status DataLawyer::AddPolicyWithGuard(const std::string& name,
                                      const std::string& sql,
                                      const std::string& guard_sql) {
  DL_RETURN_NOT_OK(AddPolicy(name, sql));
  Policy& policy = source_policies_.back();
  auto guard = Parser::ParseSelect(guard_sql);
  if (!guard.ok()) {
    source_policies_.pop_back();
    return guard.status();
  }
  // The guard must bind against the same catalog as the policy.
  UsageLog::PolicyCatalog catalog =
      log_->MakeCatalog(system_catalog_.get(), clock_->Now());
  Binder binder(catalog.view());
  Status bound = binder.Bind(**guard).status();
  if (!bound.ok()) {
    source_policies_.pop_back();
    return bound;
  }
  policy.guard = std::move(guard).value();
  policy.guard_sql = guard_sql;
  prepared_valid_ = false;
  return Status::OK();
}

Status DataLawyer::RemovePolicy(const std::string& name) {
  for (size_t i = 0; i < source_policies_.size(); ++i) {
    if (source_policies_[i].name == name) {
      source_policies_.erase(source_policies_.begin() + i);
      prepared_valid_ = false;
      return Status::OK();
    }
  }
  return Status::NotFound("no such policy: " + name);
}

const CatalogView* DataLawyer::policy_base_catalog() const {
  // Both branches bottom out in system_catalog_ — policies resolve real
  // tables first, then the dl_* telemetry relations.
  return constants_catalog_ != nullptr
             ? static_cast<const CatalogView*>(constants_catalog_.get())
             : system_catalog_.get();
}

Status DataLawyer::Prepare() {
  DL_TRACE_SPAN("dl.prepare", "core");
  // A pending background compaction reads the prepared witness bodies,
  // their cached plans, and the log tables; wait it out before freeing or
  // reconfiguring any of them.
  DL_RETURN_NOT_OK(Flush());
  active_.clear();
  prepared_.clear();
  constants_.clear();
  constants_catalog_.reset();
  mentioned_logs_.clear();
  witness_bodies_ = WitnessBodies{};
  union_combined_.reset();
  union_member_.clear();
  plan_cache_.Clear();

  // Footnote 7: restrict each policy's history to its registration time.
  std::vector<Policy> sources;
  for (const Policy& p : source_policies_) {
    Policy clone = p.Clone();
    if (clone.active_from > 0) {
      clone.stmt = RestrictHistory(*clone.stmt, *log_, clone.active_from);
      clone.sql = clone.stmt->ToString();
    }
    sources.push_back(std::move(clone));
  }

  // ---- unification (§4.2.2) ----
  if (options_.enable_unification) {
    DL_ASSIGN_OR_RETURN(UnificationResult unified, UnifyPolicies(sources));
    active_ = std::move(unified.policies);
    constants_ = std::move(unified.constants);
  } else {
    for (Policy& p : sources) active_.push_back(std::move(p));
  }
  if (!constants_.empty()) {
    constants_catalog_ =
        std::make_unique<OverlayCatalog>(system_catalog_.get());
    for (const auto& [name, table] : constants_) {
      constants_catalog_->Add(name, table.get());
    }
  }

  // ---- analysis and π_ind rewrites (§4.1.1) ----
  PolicyAnalyzer analyzer(log_.get());
  for (Policy& policy : active_) {
    DL_RETURN_NOT_OK(analyzer.Analyze(&policy));
    if (!options_.enable_time_independent) {
      policy.time_independent = false;
      policy.rewritten = nullptr;
    }
    if (policy.guard != nullptr) {
      // The precise policy may only run after its guard's logs exist too.
      for (const std::string& rel : CollectLogRelations(*policy.guard, *log_)) {
        bool present = false;
        for (const std::string& have : policy.log_relations) {
          if (have == rel) present = true;
        }
        if (!present) policy.log_relations.push_back(rel);
      }
    }
    for (const std::string& rel : policy.log_relations) {
      mentioned_logs_.insert(rel);
    }
  }

  // Relations needed only by time-independent policies never persist
  // (the implementation note in §5.3).
  std::set<std::string> skip_retention;
  for (const std::string& rel : log_->RelationNamesInOrder()) {
    bool mentioned = mentioned_logs_.count(rel) > 0;
    bool only_time_independent = mentioned;
    for (const Policy& policy : active_) {
      for (const std::string& r : policy.log_relations) {
        if (r == rel && !policy.time_independent) only_time_independent = false;
      }
    }
    bool skip = mentioned && only_time_independent;
    log_->SetPersisted(rel, !skip);
    if (skip) skip_retention.insert(rel);
  }

  // Equality hash indexes over the persisted log: policy predicates are
  // dominated by `uid = $user` / `ts = $now` conjuncts, which the executor
  // turns into index probes instead of full scans. Turning the option off
  // after indexes were built drops them, so the cache stamp (and the access
  // paths policies actually use) track the option.
  if (options_.enable_log_indexes) {
    log_->EnableIndexes();
  } else {
    log_->DisableIndexes();
  }

  // Ordered timestamp indexes serve the sliding-window range predicates
  // (`p.ts > $now - 30`) every windowed policy carries; statistics feed the
  // planner's cost model. Both share the hash indexes' maintenance
  // discipline and, like them, are reflected in the cache stamp.
  if (options_.enable_ordered_log_indexes) {
    log_->EnableOrderedIndexes();
  } else {
    log_->DisableOrderedIndexes();
  }
  if (options_.enable_stats_costing && !StatsCostingDisabledByEnv()) {
    log_->EnableStats();
  } else {
    log_->DisableStats();
  }

  // ---- per-policy witness sets and partial-policy caches ----
  std::vector<std::string> order;
  for (const std::string& rel : log_->RelationNamesInOrder()) {
    if (mentioned_logs_.count(rel)) order.push_back(rel);
  }

  WitnessBuilder witness_builder(log_.get());
  for (size_t i = 0; i < active_.size(); ++i) {
    Policy& policy = active_[i];
    PreparedPolicy prep;
    prep.policy_index = i;
    prep.prunable = policy.monotone || AllMembersGrouped(*policy.stmt);
    prep.improved_ok =
        policy.monotone && TimestampsAllJoined(policy.effective(), *log_);
    if (policy.guard != nullptr) {
      prep.guard_relations = CollectLogRelations(*policy.guard, *log_);
    }

    // A time-independent policy needs no history: π_ind pins every log
    // alias's ts to the clock, so each of its witness queries carries
    // `dl_now.ts + 1 <= a.ts` and is empty under Clock::Tick's strictly
    // increasing contract — the same argument as skip_retention.
    if (options_.enable_log_compaction && !policy.time_independent) {
      DL_ASSIGN_OR_RETURN(prep.witnesses,
                          witness_builder.Build(policy.effective()));
    }

    if (options_.strategy == EvalStrategy::kInterleaved && prep.prunable) {
      std::set<std::string> available;
      for (size_t k = 0; k <= order.size(); ++k) {
        if (k > 0) available.insert(order[k - 1]);
        bool covered = true;
        for (const std::string& rel : policy.log_relations) {
          if (!available.count(rel)) covered = false;
        }
        prep.covered.push_back(covered);
        bool touches = false;
        for (const std::string& rel : policy.log_relations) {
          if (available.count(rel)) touches = true;
        }
        prep.prefix_touches_log.push_back(touches);
        if (policy.guard != nullptr) {
          bool guard_ok = true;
          for (const std::string& rel : prep.guard_relations) {
            if (!available.count(rel)) guard_ok = false;
          }
          prep.guard_covered.push_back(guard_ok);
        }
        if (covered) {
          prep.partials.push_back(nullptr);  // evaluate the full policy
        } else {
          auto partial =
              BuildPartialPolicy(policy.effective(), *log_, available);
          if (!policy.monotone) StripHaving(partial.get());
          prep.partials.push_back(std::move(partial));
        }
      }
    }
    prepared_.push_back(std::move(prep));
  }
  if (options_.enable_log_compaction) {
    std::vector<const WitnessSet*> sets;
    for (const PreparedPolicy& prep : prepared_) {
      sets.push_back(&prep.witnesses);
    }
    witness_bodies_ = FoldWitnesses(sets, skip_retention);
  }

  // ---- the kUnion strategy's combined statement (Algorithm 1 line 1) ----
  // Built once here — not per query — so it can be planned into the cache.
  union_member_.assign(active_.size(), false);
  if (options_.strategy == EvalStrategy::kUnion) {
    std::vector<size_t> members;
    for (size_t i = 0; i < active_.size(); ++i) {
      const Policy& policy = active_[i];
      bool fits = policy.guard == nullptr &&
                  policy.effective().items.size() == 1 &&
                  policy.effective().items[0].expr->kind() != ExprKind::kStar;
      if (fits) members.push_back(i);
    }
    if (members.size() > 1) {
      SelectStmt* tail = nullptr;
      for (size_t i : members) {
        union_member_[i] = true;
        std::unique_ptr<SelectStmt> clone = active_[i].effective().Clone();
        if (union_combined_ == nullptr) {
          union_combined_ = std::move(clone);
          tail = union_combined_.get();
        } else {
          tail->union_all = true;  // dedup is unnecessary for a violation test
          tail->union_next = std::move(clone);
        }
        while (tail->union_next != nullptr) tail = tail->union_next.get();
      }
    }
  }

  // ---- per-policy plan cache ----
  WarmPlanCache();

  prepared_valid_ = true;
  return Status::OK();
}

uint64_t DataLawyer::CacheStamp() const {
  // Any bit flip invalidates every cached plan: schema version (DDL, or a
  // stats-drift rewarm via Database::BumpVersion), hash-index state,
  // ordered-index state, and whether stats-based costing is live.
  return db_->version() * 8 + (log_->indexes_enabled() ? 4 : 0) +
         (log_->ordered_indexes_enabled() ? 2 : 0) +
         (log_->stats_enabled() ? 1 : 0);
}

void DataLawyer::WarmPlanCache() {
  uint64_t stamp = CacheStamp();
  // A stamp change after the initial warm means every cached plan just
  // became untrusted — DDL bumped the schema version, or the log-index
  // state flipped. Count it once on the global miss counter so invalidation
  // churn is observable even though steady-state per-query stats stay at
  // zero misses. The first population is not an invalidation.
  if (options_.enable_metrics && options_.enable_plan_cache &&
      plan_cache_warmed_ && plan_cache_.stamp() != stamp) {
    MetricsRegistry::Global()
        .GetCounter("dl_plan_cache_misses_total",
                    "policy statements that needed a one-shot bind and plan")
        ->Increment();
  }
  plan_cache_.Clear();
  plan_cache_.set_stamp(stamp);
  plan_cache_warmed_ = true;
  incremental_class_.clear();
  for (WitnessBody& body : witness_bodies_.bodies) body.plan = nullptr;
  if (!options_.enable_plan_cache) return;
  DL_TRACE_SPAN("plan.warm", "plan");
  // The warming catalog dies with this scope; cached plans never
  // dereference the relation pointers bound here (see PlanCache).
  UsageLog::PolicyCatalog catalog =
      log_->MakeCatalog(policy_base_catalog(), clock_->Now());
  Planner planner(PlannerOptions{true, options_.enable_stats_costing});
  // The stats snapshot the costed plans were built against: per-relation
  // main-table row counts, compared on later queries to detect drift.
  stats_warm_rows_.clear();
  for (const std::string& rel : log_->RelationNamesInOrder()) {
    const Table* main = log_->main_table(rel);
    if (main != nullptr) stats_warm_rows_[rel] = main->NumRows();
  }
  for (size_t i = 0; i < active_.size(); ++i) {
    const Policy& policy = active_[i];
    plan_cache_.Warm(policy.effective(), catalog.view(), planner);
    // Classify the full policy statement and attach maintenance state to
    // incrementalizable entries. Clear() above already destroyed any prior
    // state, which is exactly the invalidation contract: DDL, index-flag,
    // and stats-drift stamp changes force a rebuild from scratch.
    if (incremental_enabled_) {
      PlanCache::Entry* entry = plan_cache_.MutableLookup(policy.effective());
      if (entry != nullptr && entry->bound != nullptr) {
        entry->incremental = IncrementalState::Build(
            policy.effective(), *entry->bound, *log_, policy_base_catalog());
      }
      incremental_class_[policy.name] =
          entry != nullptr && entry->incremental != nullptr ? "incremental"
                                                            : "full-only";
    }
    if (policy.guard != nullptr) {
      plan_cache_.Warm(*policy.guard, catalog.view(), planner);
    }
    for (const std::unique_ptr<SelectStmt>& partial : prepared_[i].partials) {
      if (partial != nullptr) {
        plan_cache_.Warm(*partial, catalog.view(), planner);
      }
    }
  }
  if (union_combined_ != nullptr) {
    plan_cache_.Warm(*union_combined_, catalog.view(), planner);
  }
  // Witness bodies reference dl_now besides the policy catalog. The stamp
  // and the stats-drift rewarm cover them like the policy plans; Mark runs
  // them directly from these entries.
  AddNowRelation(&catalog, clock_->Now());
  for (WitnessBody& body : witness_bodies_.bodies) {
    plan_cache_.Warm(*body.query, catalog.view(), planner);
    const PlanCache::Entry* entry = plan_cache_.Lookup(*body.query);
    body.plan = entry != nullptr ? &entry->plan : nullptr;
  }
}

void DataLawyer::AdvanceIncrementalStates(int64_t ts) {
  size_t rebuilds = 0;
  plan_cache_.ForEachEntry([&](PlanCache::Entry& entry) {
    if (entry.incremental != nullptr) entry.incremental->Advance(ts, &rebuilds);
  });
  stats_.incremental_rebuilds += rebuilds;
}

Result<QueryResult> DataLawyer::Execute(const std::string& sql,
                                        const QueryContext& context) {
  DL_TRACE_SPAN("dl.execute", "core");
  if (!prepared_valid_) {
    DL_RETURN_NOT_OK(Prepare());
  }
  stats_ = ExecutionStats{};
  auto parse_start = Now();
  DL_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  stats_.parse_us = UsSince(parse_start);
  if (stmt.kind != StatementKind::kSelect) {
    // DDL/DML bypasses policy checking (policies govern reads, §3);
    // EXPLAIN is a diagnostic and bypasses it the same way — but it runs
    // with the same morsel execution options a checked query would use,
    // so EXPLAIN ANALYZE profiles production splits (and morsel timing).
    ExecOptions diag_options;
    if (morsel_enabled_ && stmt.kind == StatementKind::kExplain) {
      diag_options.scheduler = EnsureScheduler(1);
      diag_options.morsel_size = options_.morsel_size;
      if (adaptive_enabled_) {
        diag_options.morsel_feedback = &morsel_feedback_;
      }
    }
    return engine_.ExecuteStatement(stmt, diag_options);
  }
  int64_t ts = clock_->Tick();
  stats_.ts = ts;
  return RunChecked(sql, *stmt.select, context, ts, /*probe=*/false);
}

Result<QueryResult> DataLawyer::RunChecked(const std::string& sql,
                                           const SelectStmt& stmt,
                                           const QueryContext& context,
                                           int64_t ts, bool probe) {
  // Scheduler attribution brackets the whole checked pipeline: every task
  // this thread (and, transitively, its worker tasks) submits is charged
  // to query_group_, so the counts are exact per-query — a concurrent
  // background compaction runs detached and never leaks in.
  query_group_.Reset();
  attribution_.assign(active_.size() + 1, QueryAttribution{});
  // A probe reuses the checked path with compaction, commit and execution
  // suppressed; its staged increments are discarded afterwards.
  probe_mode_ = probe;
  Result<QueryResult> result = [&] {
    ScopedTaskGroup group(&query_group_);
    return ExecuteChecked(stmt, context, ts);
  }();
  probe_mode_ = false;
  // A probe never commits its increment, and neither does a failed query:
  // a staged increment (with its generation flags) left behind would be
  // read by every later query instead of its own. A pending async
  // compaction owns the log; it was submitted past every failing exit
  // before compaction, and it flushes or fails the increment itself.
  if (probe || (!result.ok() && !pending_compaction_.valid())) {
    log_->DiscardStaged();
  }
  stats_.sched_tasks = query_group_.tasks.load(std::memory_order_relaxed);
  stats_.steals = query_group_.steals.load(std::memory_order_relaxed);
  stats_.queue_wait_us =
      query_group_.queue_wait_us.load(std::memory_order_relaxed);

  static const std::string kUnionSlot = "(union)";
  for (size_t i = 0; i < attribution_.size(); ++i) {
    const QueryAttribution& a = attribution_[i];
    if (a.evaluations == 0 && a.prunes == 0 && a.rejections == 0) continue;
    const std::string& name = i < active_.size() ? active_[i].name : kUnionSlot;
    PolicyStats& s = policy_stats_[name];
    if (s.name.empty()) s.name = name;
    s.evaluations += a.evaluations;
    s.prunes += a.prunes;
    s.rejections += a.rejections;
    s.eval_us += a.eval_us;
    s.incremental_hits += a.incremental_hits;
    s.incremental_fallbacks += a.incremental_fallbacks;
  }
  RecordDecision(sql, context, result.status(), probe);
  return result;
}

Status DataLawyer::Flush() {
  if (pending_compaction_.valid()) {
    Result<CompactionStats> result = pending_compaction_.get();
    DL_RETURN_NOT_OK(result.status());
    last_compaction_stats_ = *result;
  }
  return Status::OK();
}

Status DataLawyer::WouldAllow(const std::string& sql,
                              const QueryContext& context) {
  if (!prepared_valid_) {
    DL_RETURN_NOT_OK(Prepare());
  }
  DL_RETURN_NOT_OK(Flush());
  stats_ = ExecutionStats{};
  auto parse_start = Now();
  DL_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  stats_.parse_us = UsSince(parse_start);
  if (stmt.kind != StatementKind::kSelect) {
    return Status::OK();  // DDL/DML bypasses policies
  }
  // Probe at the next timestamp without consuming it.
  int64_t ts = clock_->Now() + 1;
  stats_.ts = ts;
  return RunChecked(sql, *stmt.select, context, ts, /*probe=*/true).status();
}

Result<QueryResult> DataLawyer::QueryUsageLog(const std::string& sql) {
  DL_RETURN_NOT_OK(Flush());
  system_catalog_->InvalidateSnapshots();
  DL_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("QueryUsageLog only accepts SELECT");
  }
  UsageLog::PolicyCatalog catalog =
      log_->MakeCatalog(policy_base_catalog(), clock_->Now());
  Executor executor(catalog.view());
  return executor.Execute(*stmt.select);
}

Result<std::string> DataLawyer::ExplainLogQuery(const std::string& sql) {
  DL_RETURN_NOT_OK(Flush());
  system_catalog_->InvalidateSnapshots();
  DL_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("ExplainLogQuery only accepts SELECT");
  }
  UsageLog::PolicyCatalog catalog =
      log_->MakeCatalog(policy_base_catalog(), clock_->Now());
  Executor executor(catalog.view());
  return executor.Explain(*stmt.select);
}

Result<std::string> DataLawyer::ExplainPolicy(const std::string& name) {
  if (!prepared_valid_) DL_RETURN_NOT_OK(Prepare());
  DL_RETURN_NOT_OK(Flush());  // the catalog below reads the log tables
  for (const Policy& policy : active_) {
    if (policy.name != name) continue;
    UsageLog::PolicyCatalog catalog =
        log_->MakeCatalog(policy_base_catalog(), clock_->Now());
    const PlanCache::Entry* cached =
        options_.enable_plan_cache && plan_cache_.stamp() == CacheStamp()
            ? plan_cache_.Lookup(policy.effective())
            : nullptr;
    if (cached != nullptr) {
      return RenderPhysicalPlan(cached->plan, catalog.view());
    }
    Executor executor(catalog.view());
    return executor.Explain(policy.effective());
  }
  return Status::NotFound("no such policy: " + name);
}

Result<std::string> DataLawyer::ExplainAnalyzePolicy(const std::string& name) {
  if (!prepared_valid_) DL_RETURN_NOT_OK(Prepare());
  // Run against the committed log (same state a real evaluation would see).
  DL_RETURN_NOT_OK(Flush());
  for (const Policy& policy : active_) {
    if (policy.name != name) continue;
    UsageLog::PolicyCatalog catalog =
        log_->MakeCatalog(policy_base_catalog(), clock_->Now());
    const PlanCache::Entry* cached =
        options_.enable_plan_cache && plan_cache_.stamp() == CacheStamp()
            ? plan_cache_.Lookup(policy.effective())
            : nullptr;
    if (cached != nullptr) {
      ExecOptions exec_options;
      if (morsel_enabled_) {
        // Same scheduler a real evaluation would use, so the profiled
        // morsel/partition counts match production execution.
        exec_options.scheduler = EnsureScheduler(1);
        exec_options.morsel_size = options_.morsel_size;
        if (adaptive_enabled_) {
          exec_options.morsel_feedback = &morsel_feedback_;
        }
      }
      PlanExecutor exec(catalog.view(), exec_options);
      exec.EnableProfiling();
      auto start = Now();
      DL_ASSIGN_OR_RETURN(QueryResult result, exec.Run(cached->plan));
      double total_us = UsSince(start);
      std::string out = RenderOperatorProfile(exec.profile(), total_us);
      out += "  result: " + std::to_string(result.rows.size()) + " rows\n";
      return out;
    }
    Executor executor(catalog.view());
    return executor.ExplainAnalyze(policy.effective());
  }
  return Status::NotFound("no such policy: " + name);
}

std::string DataLawyer::SpanLabel(const char* prefix,
                                  const std::string& name) {
  if (!Tracer::Global().enabled()) return std::string();
  return std::string(prefix) + name;
}

Result<DataLawyer::PolicyEvalOutput> DataLawyer::EvalPolicyStatement(
    const SelectStmt& stmt, const CatalogView* catalog,
    bool check_increment_dependence, const std::string& span_label) const {
  ScopedSpan span(span_label.empty() ? std::string("policy.eval")
                                     : span_label,
                  "policy");
  auto t0 = Now();
  if (options_.per_call_overhead_us > 0) {
    if (options_.per_call_overhead_sleep) {
      // A blocking round-trip to a remote DBMS: the worker yields, so
      // concurrent evaluations overlap the latency regardless of cores.
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.per_call_overhead_us));
    } else {
      BusyWaitMicros(options_.per_call_overhead_us);
    }
  }

  ExecOptions exec_options;
  exec_options.capture_lineage = check_increment_dependence;
  exec_options.enable_stats_costing = options_.enable_stats_costing;
  if (morsel_enabled_ && scheduler_ != nullptr) {
    // The scheduler was ensured in ExecuteChecked's serial head; workers
    // already running policy tasks push their morsels onto their own
    // deques, so plan-level parallelism composes with the fan-out.
    exec_options.scheduler = scheduler_.get();
    exec_options.morsel_size = options_.morsel_size;
    // morsel_feedback_ is mutable and lock-free; suggestions are frozen
    // for the duration of the query (Roll() runs only at the serial head),
    // so concurrent statements all see the same sizes.
    if (adaptive_enabled_) exec_options.morsel_feedback = &morsel_feedback_;
  }
  PolicyEvalOutput out;
  QueryResult result;
  // A registered statement runs from its cached physical plan — zero
  // bind/plan work per evaluation; anything else (or a stale stamp) takes
  // the one-shot bind-and-plan path.
  const PlanCache::Entry* cached =
      options_.enable_plan_cache && plan_cache_.stamp() == CacheStamp()
          ? plan_cache_.Lookup(stmt)
          : nullptr;
  // Incremental fast path: answer from maintained state + the staged
  // increment, skipping the plan execution entirely. Only full policy
  // statements carry state (guards/partials/union never do), and a decline
  // falls through to the identical-verdict full evaluation below.
  if (incremental_enabled_ && cached != nullptr &&
      cached->incremental != nullptr && !check_increment_dependence) {
    IncrementalState::Verdict verdict =
        cached->incremental->Evaluate(stats_.ts);
    if (verdict.supported) {
      if (verdict.violated) {
        out.messages.push_back(cached->incremental->message());
      }
      out.plan_cache_hit = true;
      out.incremental_hit = true;
      out.eval_us = UsSince(t0);
      return out;
    }
    out.incremental_fallback = true;
  }
  if (cached != nullptr) {
    PlanExecutor plan_exec(catalog, exec_options);
    DL_ASSIGN_OR_RETURN(result, plan_exec.Run(cached->plan));
    out.plan_cache_hit = true;
    out.index_probes = plan_exec.scan_stats().index_probes;
    out.index_hits = plan_exec.scan_stats().index_hits;
    out.range_probes = plan_exec.scan_stats().range_probes;
    out.range_hits = plan_exec.scan_stats().range_hits;
    out.morsels = plan_exec.scan_stats().morsels;
  } else {
    Executor executor(catalog, exec_options);
    DL_ASSIGN_OR_RETURN(result, executor.Execute(stmt));
    out.index_probes = executor.scan_stats().index_probes;
    out.index_hits = executor.scan_stats().index_hits;
    out.range_probes = executor.scan_stats().range_probes;
    out.range_hits = executor.scan_stats().range_hits;
    out.morsels = executor.scan_stats().morsels;
  }

  if (check_increment_dependence) {
    for (const LineageSet& lineage : result.lineage) {
      for (const LineageEntry& entry : lineage) {
        if (log_->IsLogRelation(result.base_relations[entry.rel]) &&
            ConcatRelation::IsFromSecond(entry.row_id)) {
          out.depends_on_increment = true;
        }
      }
    }
  }

  for (const Row& row : result.rows) {
    if (row.empty()) continue;
    std::string msg = row[0].is_string() ? row[0].AsString()
                                         : row[0].ToString();
    bool seen = false;
    for (const std::string& m : out.messages) {
      if (m == msg) seen = true;
    }
    if (!seen) out.messages.push_back(std::move(msg));
    if (out.messages.size() >= 8) break;  // cap the report
  }
  if (out.messages.empty() && !result.rows.empty()) {
    out.messages.push_back("policy violated");
  }
  out.eval_us = UsSince(t0);
  return out;
}

DataLawyer::QueryAttribution& DataLawyer::AttributionFor(const Policy* policy) {
  // Every attributed policy is an element of active_, so its position in
  // active_ is its slot.
  return attribution_[policy != nullptr ? size_t(policy - active_.data())
                                        : active_.size()];
}

void DataLawyer::RecordEvalCounters(const PolicyEvalOutput& out,
                                    const Policy* attribute_to) {
  ++stats_.policies_evaluated;
  if (options_.enable_plan_cache) {
    ++(out.plan_cache_hit ? stats_.plan_cache_hits
                          : stats_.plan_cache_misses);
  }
  stats_.policy_cpu_us += out.eval_us;
  stats_.index_probes += out.index_probes;
  stats_.index_hits += out.index_hits;
  stats_.range_probes += out.range_probes;
  stats_.range_hits += out.range_hits;
  stats_.morsels += out.morsels;
  QueryAttribution& slot = AttributionFor(attribute_to);
  ++slot.evaluations;
  slot.eval_us += out.eval_us;
  if (out.incremental_hit) {
    ++stats_.incremental_hits;
    ++slot.incremental_hits;
  } else if (out.incremental_fallback) {
    ++stats_.incremental_fallbacks;
    ++slot.incremental_fallbacks;
  }
}

size_t DataLawyer::RunPolicyWave(size_t n,
                                 const std::function<bool(size_t)>& eval) {
  if (n == 0) return 0;
  std::atomic<size_t> decisive{n};
  auto run = [&](size_t i) {
    if (i > decisive.load() || !eval(i)) return;
    size_t seen = decisive.load();
    while (i < seen && !decisive.compare_exchange_weak(seen, i)) {
    }
  };
  auto t0 = Now();
  if (options_.policy_threads == 0 || n == 1) {
    for (size_t i = 0; i < n; ++i) run(i);
  } else {
    EnsureScheduler(1)->ParallelFor(n, run);
  }
  stats_.policy_wall_us += UsSince(t0);
  return decisive.load();
}

TaskScheduler* DataLawyer::EnsureScheduler(size_t min_threads) {
  // One scheduler serves policy fan-out and morsel execution; size it to
  // the larger of the two knobs, never their sum — nested morsel tasks
  // share the same workers instead of oversubscribing the machine.
  size_t want = std::max(
      min_threads, size_t(std::max(0, options_.policy_threads)));
  if (morsel_enabled_) {
    want = std::max(want, size_t(std::max(0, options_.exec_threads)));
  }
  if (scheduler_ == nullptr || scheduler_->num_threads() < want) {
    // Replacing a scheduler drains it first (its destructor completes
    // every queued task), so an outstanding compaction future stays valid.
    scheduler_.reset();
    scheduler_ = std::make_unique<TaskScheduler>(want);
    // Wall-clock telemetry (queue latency, busy/idle split) follows the
    // metrics switch; the counter slots are always on.
    scheduler_->set_telemetry_enabled(options_.enable_metrics);
  }
  return scheduler_.get();
}

Status DataLawyer::GenerateLog(const std::string& relation, int64_t ts,
                               const GenerationInput& input) {
  if (log_->IsGenerated(relation)) return Status::OK();
  ScopedSpan span(SpanLabel("log.gen:", relation), "log");
  auto t0 = Now();
  DL_ASSIGN_OR_RETURN(size_t staged, log_->EnsureGenerated(relation, ts, input));
  stats_.log_gen_ms += MsSince(t0);
  ++stats_.logs_generated;
  stats_.log_rows_staged += staged;
  return Status::OK();
}

Result<bool> DataLawyer::IncrementProvablyDispensable(const std::string& name,
                                                      int64_t ts) {
  ScopedSpan span(SpanLabel("compact.preemptive:", name), "policy");
  // Available = everything generated so far.
  std::set<std::string> available;
  for (const std::string& rel : log_->RelationNamesInOrder()) {
    if (log_->IsGenerated(rel)) available.insert(rel);
  }

  UsageLog::PolicyCatalog catalog =
      log_->MakeCatalog(policy_base_catalog(), ts);
  AddNowRelation(&catalog, ts);

  for (const PreparedPolicy& prep : prepared_) {
    auto it = prep.witnesses.per_relation.find(name);
    if (it == prep.witnesses.per_relation.end()) continue;
    if (it->second.full_fallback) return false;
    for (const auto& query : it->second.queries) {
      std::unique_ptr<SelectStmt> partial =
          BuildPartialPolicy(*query, *log_, available);
      Executor executor(catalog.view());
      DL_ASSIGN_OR_RETURN(QueryResult result, executor.Execute(*partial));
      if (!result.empty()) return false;
    }
  }
  return true;
}

Status DataLawyer::CompactLog(int64_t ts) {
  auto compact = [this, ts]() -> Result<CompactionStats> {
    LogCompactor compactor(log_.get());
    return compactor.CompactAndFlush(witness_bodies_, policy_base_catalog(),
                                     ts);
  };
  if (options_.async_compaction) {
    // §5.1: return the result before compaction finishes. The worker owns
    // the log tables, and reads the witness bodies and their cached plans,
    // until the next Flush waits on it. Detached from the query's
    // attribution group: compaction outlives the query, and its tasks must
    // not inflate the query's scheduler footprint.
    ScopedTaskGroup detach(nullptr);
    pending_compaction_ = EnsureScheduler(1)->Submit([compact] {
      DL_TRACE_SPAN("compact.async", "policy");
      return compact();
    });
    return Status::OK();
  }
  DL_ASSIGN_OR_RETURN(last_compaction_stats_, compact());
  stats_.compact_mark_ms = last_compaction_stats_.mark_ms;
  stats_.compact_delete_ms = last_compaction_stats_.delete_ms;
  stats_.compact_insert_ms = last_compaction_stats_.insert_ms;
  stats_.log_rows_deleted = last_compaction_stats_.rows_deleted;
  stats_.log_rows_flushed = last_compaction_stats_.rows_inserted;
  return Status::OK();
}

Result<QueryResult> DataLawyer::ExecuteChecked(const SelectStmt& stmt,
                                               const QueryContext& context,
                                               int64_t ts) {
  // A pending background compaction owns the log tables; wait it out.
  DL_RETURN_NOT_OK(Flush());

  // Morsel execution hands the scheduler to every plan executor below;
  // create it here in the serial head — EvalPolicyStatement is const and
  // runs concurrently, so it can only read scheduler_, never grow it.
  if (morsel_enabled_) EnsureScheduler(1);

  // Fold last query's morsel observations into the adaptive sizer and
  // publish new suggestions. Serial head, no query in flight: every
  // executor this query sees the same sizes, so morsel boundaries are
  // stable for the whole query.
  if (adaptive_enabled_) morsel_feedback_.Roll();

  // Serial head: drop telemetry snapshots materialized by earlier queries,
  // so every phase of *this* query (bind, log generation, evaluation,
  // execution) observes one consistent dl_* state — which excludes this
  // query's own decision record, appended only after execution. Costs one
  // atomic load when no snapshot exists.
  system_catalog_->InvalidateSnapshots();
  if (decisions_.enabled()) {
    last_witnesses_.clear();
    last_witnesses_truncated_ = 0;
  }

  // Stats drift: costed plans embed cardinality-derived access-path and
  // join-order choices, so once a log main table has grown or shrunk 2x
  // past a 256-row floor since the plans were costed, bump the schema
  // version — the stamp check below then rewarms against fresh statistics.
  // The floor keeps tiny tables (whose plans are all equivalent anyway)
  // from churning the cache.
  if (options_.enable_plan_cache && log_->stats_enabled()) {
    for (const auto& [rel, ref] : stats_warm_rows_) {
      const Table* main = log_->main_table(rel);
      if (main == nullptr) continue;
      size_t cur = main->NumRows();
      if (std::max(cur, ref) < 256) continue;
      if (cur >= 2 * ref || 2 * cur <= ref) {
        db_->BumpVersion();
        break;
      }
    }
  }

  // Revalidate the plan cache against the schema/index epoch: DDL between
  // queries (CreateTable/DropTable bypasses the policy gate) invalidates
  // every cached plan. Rebuilding here — in the serial head, before the
  // evaluation fan-out — keeps Lookup read-only for the pool workers.
  if (options_.enable_plan_cache && plan_cache_.stamp() != CacheStamp()) {
    auto plan_start = Now();
    WarmPlanCache();
    stats_.plan_us = UsSince(plan_start);
  }

  // Incremental maintenance, still in the serial head: fold the committed
  // log growth into every policy's materialized state and roll the window
  // edges to `ts`, before the evaluation fan-out reads the states
  // concurrently. Timed into plan_us (it is plan-shaped warm work), so the
  // phase identity total_ms == sum-of-profile-phases is preserved.
  if (incremental_enabled_) {
    auto advance_start = Now();
    AdvanceIncrementalStates(ts);
    stats_.plan_us += UsSince(advance_start);
  }

  // Bind the user query against the database plus the dl_* system
  // relations (needed by f_Schema, to let telemetry queries through the
  // same policy gate, and to surface SQL errors before any policy work).
  auto bind_start = Now();
  Binder binder(system_catalog_.get());
  DL_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound, binder.Bind(stmt));
  stats_.bind_us = UsSince(bind_start);

  GenerationInput input;
  input.query = &stmt;
  input.bound = bound.get();
  input.db_catalog = system_catalog_.get();
  input.context = &context;

  UsageLog::PolicyCatalog catalog =
      log_->MakeCatalog(policy_base_catalog(), ts);

  std::vector<std::string> violations;
  last_violations_.clear();
  auto attribute = [&](const Policy& policy,
                       const std::vector<std::string>& messages) {
    last_violations_.push_back(
        ViolationReport{policy.name, policy.sql, messages});
    ++AttributionFor(&policy).rejections;
  };
  // A guard, partial, or increment check dismissed `policy` early.
  auto prune = [&](const Policy& policy) {
    ++stats_.policies_pruned_early;
    ++AttributionFor(&policy).prunes;
  };
  auto reject = [&]() -> Status {
    // Capture the violating log rows while the staged increment still
    // exists — the witness tuples behind this rejection. Best-effort: a
    // capture error degrades the explanation, never the verdict.
    if (decisions_.enabled() && !last_violations_.empty()) {
      for (const Policy& policy : active_) {
        if (policy.name != last_violations_.front().policy_name) continue;
        Result<WitnessCaptureResult> captured = CaptureViolationWitnesses(
            policy.effective(), catalog.view(), *log_,
            options_.decision_witness_limit, options_.decision_witness_naive,
            options_.enable_stats_costing);
        if (captured.ok()) {
          last_witnesses_.clear();
          for (CapturedWitness& c : captured->rows) {
            last_witnesses_.push_back(DecisionWitness{
                std::move(c.relation), c.row_id, c.from_increment, c.ts,
                std::move(c.values)});
          }
          last_witnesses_truncated_ = captured->truncated;
        }
        break;
      }
    }
    log_->DiscardStaged();
    stats_.rejected = true;
    stats_.violations = violations;
    std::string message;
    for (const std::string& v : violations) {
      if (!message.empty()) message += "; ";
      message += v;
    }
    return Status::PolicyViolation(message);
  };

  // Generation order restricted to mentioned logs (Algorithm 1, opt. 1).
  std::vector<std::string> order;
  for (const std::string& rel : log_->RelationNamesInOrder()) {
    if (mentioned_logs_.count(rel)) order.push_back(rel);
  }

  // One policy's outcomes in an evaluation wave: an optional guard run,
  // then the policy's statement. Filled by RunPolicyWave, read only by the
  // serial merge.
  struct WaveSlot {
    Status status = Status::OK();
    bool guard_ran = false;  // guard_out holds a successful guard run
    bool check_dep = false;  // the partial asked for increment dependence
    PolicyEvalOutput guard_out;
    PolicyEvalOutput out;
  };
  // Evaluates one statement of `policy` into `*out`, or its error into
  // `*status`; false on error. Only the const core runs, so waves may call
  // it concurrently.
  auto eval_into = [&](const SelectStmt& to_eval, bool check_dep,
                       const char* label, const Policy& policy,
                       PolicyEvalOutput* out, Status* status) {
    Result<PolicyEvalOutput> result = EvalPolicyStatement(
        to_eval, catalog.view(), check_dep, SpanLabel(label, policy.name));
    if (!result.ok()) {
      *status = result.status();
      return false;
    }
    *out = std::move(*result);
    return true;
  };
  // The serial merge of one slot, called in registration order: folds the
  // slot's counters, prune and attribution, and returns its error or its
  // rejection. `covered` = the statement was the full policy. True when a
  // partial statement left the policy open for the next round.
  auto merge = [&](const Policy& policy, WaveSlot& s,
                   bool covered) -> Result<bool> {
    if (s.guard_ran) {
      RecordEvalCounters(s.guard_out, &policy);
      if (s.guard_out.messages.empty()) {
        prune(policy);  // guard proves satisfaction
        return false;
      }
    }
    DL_RETURN_NOT_OK(s.status);
    RecordEvalCounters(s.out, &policy);
    if (covered) {
      if (s.out.messages.empty()) return false;  // fully satisfied
      attribute(policy, s.out.messages);
      violations = std::move(s.out.messages);
      return reject();
    }
    // An empty partial proves satisfaction; so does one that held in the
    // past with nothing from the current increment contributing (§4.3
    // improved partial policies).
    if (s.out.messages.empty() ||
        (s.check_dep && !s.out.depends_on_increment)) {
      prune(policy);
      return false;
    }
    return true;
  };

  // Fully checks a batch of independent policies in two waves: guards (or
  // the full statements of guardless policies) first, then the precise
  // statements behind fired guards. Log generation stays serial, ahead of
  // each wave, since it mutates the staging deltas. OK = every policy holds.
  auto check_batch =
      [&](const std::vector<const PreparedPolicy*>& batch) -> Status {
    for (const PreparedPolicy* prep : batch) {
      const Policy& policy = active_[prep->policy_index];
      for (const std::string& rel : policy.guard != nullptr
                                        ? prep->guard_relations
                                        : policy.log_relations) {
        DL_RETURN_NOT_OK(GenerateLog(rel, ts, input));
      }
    }
    std::vector<WaveSlot> slots(batch.size());
    size_t decisive = RunPolicyWave(batch.size(), [&](size_t i) {
      const Policy& policy = active_[batch[i]->policy_index];
      WaveSlot& s = slots[i];
      if (policy.guard != nullptr) {
        s.guard_ran = eval_into(*policy.guard, false, "policy.guard:", policy,
                                &s.guard_out, &s.status);
        return !s.guard_ran;
      }
      return !eval_into(policy.effective(), false, "policy.eval:", policy,
                        &s.out, &s.status) ||
             !s.out.messages.empty();
    });
    // Materialize the remaining logs of the fired guards the merge reaches.
    std::vector<size_t> fired;
    for (size_t i = 0; i < decisive; ++i) {
      if (!slots[i].guard_ran || slots[i].guard_out.messages.empty()) continue;
      fired.push_back(i);
      for (const std::string& rel :
           active_[batch[i]->policy_index].log_relations) {
        DL_RETURN_NOT_OK(GenerateLog(rel, ts, input));
      }
    }
    RunPolicyWave(fired.size(), [&](size_t j) {
      const Policy& policy = active_[batch[fired[j]]->policy_index];
      WaveSlot& s = slots[fired[j]];
      return !eval_into(policy.effective(), false, "policy.eval:", policy,
                        &s.out, &s.status) ||
             !s.out.messages.empty();
    });
    for (size_t i = 0; i < batch.size(); ++i) {
      DL_RETURN_NOT_OK(
          merge(active_[batch[i]->policy_index], slots[i], true).status());
    }
    return Status::OK();
  };

  if (options_.strategy == EvalStrategy::kInterleaved) {
    // ---- §4.4 step 1: interleaved evaluation of prunable policies ----
    std::vector<const PreparedPolicy*> remaining;
    std::vector<const PreparedPolicy*> full_only;
    for (const PreparedPolicy& prep : prepared_) {
      (prep.prunable ? remaining : full_only).push_back(&prep);
    }
    // Guarded policies whose guard already flagged them as suspicious.
    std::set<const PreparedPolicy*> guard_cleared;

    for (size_t k = 0; k <= order.size() && !remaining.empty(); ++k) {
      if (k > 0) {
        DL_RETURN_NOT_OK(GenerateLog(order[k - 1], ts, input));
      }
      // One slot per surviving policy: its approximate guard (§6) once the
      // guard's logs exist — an empty answer dismisses the policy without
      // the precise check — then its partial or full statement. The wave
      // only reads `guard_cleared`; the merge below updates it.
      std::vector<WaveSlot> slots(remaining.size());
      RunPolicyWave(remaining.size(), [&](size_t i) {
        const PreparedPolicy* prep = remaining[i];
        const Policy& policy = active_[prep->policy_index];
        WaveSlot& s = slots[i];
        if (policy.guard != nullptr && !guard_cleared.count(prep) &&
            prep->guard_covered[k]) {
          s.guard_ran = eval_into(*policy.guard, false, "policy.guard:", policy,
                                  &s.guard_out, &s.status);
          if (!s.guard_ran) return true;
          if (s.guard_out.messages.empty()) return false;
        }
        const bool covered = prep->covered[k];
        s.check_dep = options_.enable_improved_partial && !covered &&
                      prep->improved_ok && prep->prefix_touches_log[k];
        return !eval_into(covered ? policy.effective() : *prep->partials[k],
                          s.check_dep,
                          covered ? "policy.eval:" : "policy.partial:", policy,
                          &s.out, &s.status) ||
               (covered && !s.out.messages.empty());
      });
      std::vector<const PreparedPolicy*> next;
      for (size_t i = 0; i < remaining.size(); ++i) {
        const PreparedPolicy* prep = remaining[i];
        const Policy& policy = active_[prep->policy_index];
        if (slots[i].guard_ran && !slots[i].guard_out.messages.empty()) {
          guard_cleared.insert(prep);  // suspicious: precise check required
        }
        DL_ASSIGN_OR_RETURN(bool open,
                            merge(policy, slots[i], prep->covered[k]));
        if (open) next.push_back(prep);
      }
      remaining = std::move(next);
    }

    // ---- §4.4 step 2: the non-prunable (non-monotone) policies ----
    DL_RETURN_NOT_OK(check_batch(full_only));
  } else {
    // ---- serial / union strategies ----
    // Generate the logs needed upfront — except those needed only by the
    // precise halves of guarded policies, which are deferred until their
    // guard fires.
    {
      std::set<std::string> upfront;
      for (size_t i = 0; i < active_.size(); ++i) {
        const Policy& policy = active_[i];
        if (policy.guard == nullptr) {
          for (const std::string& rel : policy.log_relations) {
            upfront.insert(rel);
          }
        } else {
          for (const std::string& rel : prepared_[i].guard_relations) {
            upfront.insert(rel);
          }
        }
      }
      for (const std::string& rel : order) {
        if (upfront.count(rel)) {
          DL_RETURN_NOT_OK(GenerateLog(rel, ts, input));
        }
      }
    }
    // Every policy outside the union statement is checked on its own.
    std::vector<const PreparedPolicy*> separate;
    for (size_t i = 0; i < active_.size(); ++i) {
      if (union_combined_ == nullptr || !union_member_[i]) {
        separate.push_back(&prepared_[i]);
      }
    }
    if (union_combined_ != nullptr) {
      // Algorithm 1 line 1: π_union = π_1 ∪ ... ∪ π_k, built (and planned)
      // once at Prepare time.
      DL_ASSIGN_OR_RETURN(
          PolicyEvalOutput out,
          EvalPolicyStatement(*union_combined_, catalog.view(), false,
                              SpanLabel("policy.eval:", "(union)")));
      RecordEvalCounters(out, nullptr);
      stats_.policy_wall_us += out.eval_us;
      if (!out.messages.empty()) {
        // Re-evaluate individually to attribute the violation (§6
        // debugging); the extra cost is paid only on rejection.
        for (size_t i = 0; i < active_.size(); ++i) {
          if (!union_member_[i]) continue;
          const Policy& policy = active_[i];
          Result<PolicyEvalOutput> re =
              EvalPolicyStatement(policy.effective(), catalog.view(), false,
                                  SpanLabel("policy.eval:", policy.name));
          if (!re.ok()) continue;
          RecordEvalCounters(*re, &policy);
          stats_.policy_wall_us += re->eval_us;
          if (!re->messages.empty()) attribute(policy, re->messages);
        }
        violations = std::move(out.messages);
        return reject();
      }
    }
    DL_RETURN_NOT_OK(check_batch(separate));
  }

  // Dry run (WouldAllow): all policies passed; do not touch the log or run
  // the query.
  if (probe_mode_) {
    return QueryResult{};
  }

  // ---- §4.4 step 3: log compaction (+ preemptive generation skipping) ----
  if (options_.enable_log_compaction) {
    for (const std::string& rel : order) {
      if (log_->IsGenerated(rel)) continue;
      if (options_.enable_preemptive_compaction) {
        DL_ASSIGN_OR_RETURN(bool dispensable,
                            IncrementProvablyDispensable(rel, ts));
        if (dispensable) {
          ++stats_.logs_skipped_preemptively;
          continue;
        }
      }
      DL_RETURN_NOT_OK(GenerateLog(rel, ts, input));
    }

    // §5.2: eager pruning after every query is not necessary; with a
    // compaction period > 1 the increment is flushed unpruned and the
    // witness queries run every period-th query.
    ++queries_since_compaction_;
    if (queries_since_compaction_ < options_.compaction_period) {
      DL_TRACE_SPAN("log.commit", "log");
      auto t0 = Now();
      stats_.log_rows_flushed = log_->CommitStaged();
      stats_.compact_insert_ms = MsSince(t0);
    } else {
      queries_since_compaction_ = 0;
      DL_RETURN_NOT_OK(CompactLog(ts));
    }
  } else {
    // ---- §4.4 step 4 without compaction: flush the full increment ----
    DL_TRACE_SPAN("log.commit", "log");
    auto t0 = Now();
    stats_.log_rows_flushed = log_->CommitStaged();
    stats_.compact_insert_ms = MsSince(t0);
  }

  // ---- execute the user's query ----
  // Through the system catalog, so SELECTs over dl_* relations execute
  // like any other read (real tables shadow the virtual names).
  DL_TRACE_SPAN("exec.user_query", "exec");
  auto t0 = Now();
  ExecOptions user_options;
  if (morsel_enabled_ && scheduler_ != nullptr) {
    user_options.scheduler = scheduler_.get();
    user_options.morsel_size = options_.morsel_size;
    if (adaptive_enabled_) user_options.morsel_feedback = &morsel_feedback_;
  }
  Executor user_exec(system_catalog_.get(), user_options);
  Result<QueryResult> result = user_exec.Execute(stmt);
  stats_.query_exec_ms = MsSince(t0);
  // The user plan's morsels count toward dl_morsels_total; its index
  // counters do not (those are defined over policy statements only).
  stats_.morsels += user_exec.scan_stats().morsels;
  return result;
}

std::vector<PolicyStats> DataLawyer::PolicyReport() const {
  std::vector<PolicyStats> report;
  std::set<std::string> emitted;
  // Active policies first, in registration order, zero-filled if never run.
  for (const Policy& policy : prepared_valid_ ? active_ : source_policies_) {
    auto it = policy_stats_.find(policy.name);
    if (it != policy_stats_.end()) {
      report.push_back(it->second);
    } else {
      PolicyStats zero;
      zero.name = policy.name;
      report.push_back(zero);
    }
    auto cls = incremental_class_.find(policy.name);
    report.back().incremental_class =
        cls != incremental_class_.end()
            ? cls->second
            : (incremental_enabled_ ? std::string() : std::string("off"));
    emitted.insert(policy.name);
  }
  // Then whatever else accumulated: "(union)", removed/renamed policies.
  for (const auto& [name, slot] : policy_stats_) {
    if (!emitted.count(name)) report.push_back(slot);
  }
  return report;
}

void DataLawyer::RegisterSystemRelations() {
  // Each provider materializes a read-only snapshot of one telemetry
  // surface. Providers run under the SystemCatalog mutex on first lookup
  // after an invalidation; they only read state mutated in serial sections
  // (decision store, attribution map), so a concurrent policy worker
  // resolving a dl_* name mid-evaluation sees a stable snapshot.
  system_catalog_->Register("dl_decisions", [this]() {
    return DecisionRelation(
        decisions_,
        {"id", "ts", "uid", "verdict", "probe", "policy", "query",
         "query_hash", "witness_count", "plan_cache_hits", "plan_cache_misses",
         "parse_us", "bind_us", "plan_us", "log_gen_us", "policy_eval_us",
         "compaction_us", "user_exec_us", "total_us", "morsels", "steals",
         "queue_wait_us"},
        0);
  });

  system_catalog_->Register("dl_policy_stats", [this]() {
    TableSchema schema;
    schema.AddColumn("policy", ValueType::kString)
        .AddColumn("evaluations", ValueType::kInt64)
        .AddColumn("prunes", ValueType::kInt64)
        .AddColumn("rejections", ValueType::kInt64)
        .AddColumn("eval_us", ValueType::kDouble)
        .AddColumn("incremental", ValueType::kString)
        .AddColumn("incremental_hits", ValueType::kInt64)
        .AddColumn("incremental_fallbacks", ValueType::kInt64);
    std::vector<Row> rows;
    for (const PolicyStats& s : PolicyReport()) {
      Row row;
      row.push_back(Value(s.name));
      row.push_back(Value(int64_t(s.evaluations)));
      row.push_back(Value(int64_t(s.prunes)));
      row.push_back(Value(int64_t(s.rejections)));
      row.push_back(Value(s.eval_us));
      row.push_back(s.incremental_class.empty() ? Value()
                                                : Value(s.incremental_class));
      row.push_back(Value(int64_t(s.incremental_hits)));
      row.push_back(Value(int64_t(s.incremental_fallbacks)));
      rows.push_back(std::move(row));
    }
    return std::make_unique<OwnedRelation>(std::move(schema),
                                           std::move(rows));
  });

  // The slow-enforcement log: the decisions at or above the threshold
  // (none when it is 0, the default).
  system_catalog_->Register("dl_slow_log", [this]() {
    double threshold = options_.slow_enforcement_threshold_us;
    return DecisionRelation(
        decisions_,
        {"ts", "uid", "rejected", "probe", "query", "parse_us", "bind_us",
         "plan_us", "log_gen_us", "policy_eval_us", "compaction_us",
         "user_exec_us", "total_us"},
        threshold > 0 ? threshold : std::numeric_limits<double>::infinity());
  });
}

void DataLawyer::RecordDecision(const std::string& sql,
                                const QueryContext& context, const Status& st,
                                bool probe) {
  // Only enforcement verdicts are observable events — a malformed query
  // (parse/bind error) never reached the policy gate.
  bool admitted = st.ok();
  if (!admitted && !st.IsPolicyViolation()) return;

  const PhaseTimes phases = stats_.phases();
  if (decisions_.enabled()) {
    DecisionRecord rec;
    rec.id = decisions_.NextId();
    rec.ts = stats_.ts;
    rec.uid = context.uid;
    rec.query_sql = sql;
    rec.query_hash = Fnv1a64(sql);
    rec.admitted = admitted;
    rec.probe = probe;
    if (!admitted && !last_violations_.empty()) {
      rec.policy = last_violations_.front().policy_name;
    }
    for (const ViolationReport& v : last_violations_) {
      for (const std::string& m : v.messages) rec.messages.push_back(m);
    }
    // Per-policy outcomes straight from this query's attribution slots:
    // violated > pruned > ok > skipped, plus "(union)" when the combined
    // union statement ran.
    auto add_outcome = [&](const std::string& name, const QueryAttribution& a) {
      PolicyOutcome out;
      out.policy = name;
      out.evaluations = a.evaluations;
      out.prunes = a.prunes;
      out.eval_us = a.eval_us;
      if (a.incremental_hits > 0) {
        out.incremental = "hit";
      } else if (a.incremental_fallbacks > 0) {
        out.incremental = "fallback";
      }
      out.outcome = a.rejections > 0    ? "violated"
                    : a.prunes > 0      ? "pruned"
                    : a.evaluations > 0 ? "ok"
                                        : "skipped";
      rec.outcomes.push_back(std::move(out));
    };
    for (size_t i = 0; i < active_.size(); ++i) {
      add_outcome(active_[i].name, attribution_[i]);
    }
    if (attribution_.back().evaluations > 0) {
      add_outcome("(union)", attribution_.back());
    }
    rec.witnesses = std::move(last_witnesses_);
    last_witnesses_.clear();
    rec.witnesses_truncated = last_witnesses_truncated_;
    rec.phases = phases;
    rec.plan_cache_hits = stats_.plan_cache_hits;
    rec.plan_cache_misses = stats_.plan_cache_misses;
    rec.morsels = stats_.morsels;
    rec.steals = stats_.steals;
    rec.queue_wait_us = stats_.queue_wait_us;
    // Cross-link into the trace timeline so a span dump can be joined
    // against the decision store by id.
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant("decision:" + std::to_string(rec.id), "core",
                           tracer.NowUs());
    }
    decisions_.Append(std::move(rec));
  }

  if (options_.enable_metrics) {
    // Handles resolved once per process (the registry is global and the
    // names are fixed); thereafter this is a handful of relaxed atomic ops.
    struct Handles {
      Counter* queries;
      Counter* rejected;
      Counter* probes;
      Counter* evaluated;
      Counter* pruned;
      Counter* rows_flushed;
      Counter* rows_deleted;
      Counter* index_probes;
      Counter* index_hits;
      Counter* range_probes;
      Counter* range_hits;
      Counter* morsels;
      Counter* steals;
      Counter* sched_tasks;
      Counter* plan_hits;
      Counter* plan_misses;
      Counter* incr_hits;
      Counter* incr_fallbacks;
      Counter* incr_rebuilds;
      Histogram* total_us;
      Histogram* query_us;
      Histogram* log_gen_us;
      Histogram* eval_us;
      Histogram* compact_us;
      Histogram* parse_us;
      Histogram* bind_us;
      Histogram* plan_us;
      Histogram* queue_wait_us;
    };
    static Handles h = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      Handles handles;
      handles.queries =
          r.GetCounter("dl_queries_total", "queries checked (Execute)");
      handles.rejected = r.GetCounter("dl_queries_rejected_total",
                                      "queries rejected by a policy");
      handles.probes =
          r.GetCounter("dl_probes_total", "WouldAllow dry-run checks");
      handles.evaluated = r.GetCounter("dl_policy_evaluations_total",
                                       "policy statements evaluated");
      handles.pruned = r.GetCounter("dl_policies_pruned_total",
                                    "policies dismissed early");
      handles.rows_flushed = r.GetCounter("dl_log_rows_flushed_total",
                                          "usage-log rows persisted");
      handles.rows_deleted = r.GetCounter("dl_log_rows_deleted_total",
                                          "usage-log rows compacted away");
      handles.index_probes = r.GetCounter("dl_index_probes_total",
                                          "equality conjuncts probed");
      handles.index_hits =
          r.GetCounter("dl_index_hits_total", "scans served by an index");
      handles.range_probes = r.GetCounter(
          "dl_range_probes_total",
          "range conjuncts probed against an ordered index");
      handles.range_hits = r.GetCounter(
          "dl_range_scan_hits_total",
          "scans served by an ordered-index range probe");
      handles.morsels = r.GetCounter(
          "dl_morsels_total",
          "plan morsels dispatched to the work-stealing scheduler");
      handles.steals = r.GetCounter(
          "dl_steals_total",
          "scheduler work-steals observed during checked queries");
      handles.sched_tasks = r.GetCounter(
          "dl_query_sched_tasks_total",
          "scheduler tasks attributed to checked queries");
      handles.plan_hits = r.GetCounter(
          "dl_plan_cache_hits_total",
          "policy statements evaluated from a cached physical plan");
      handles.plan_misses = r.GetCounter(
          "dl_plan_cache_misses_total",
          "policy statements that needed a one-shot bind and plan");
      handles.incr_hits = r.GetCounter(
          "dl_incremental_hits_total",
          "policy verdicts served from incremental state");
      handles.incr_fallbacks = r.GetCounter(
          "dl_incremental_fallbacks_total",
          "incremental states that declined and fell back to full eval");
      handles.incr_rebuilds = r.GetCounter(
          "dl_incremental_rebuilds_total",
          "incremental state rebuilds forced by dependency invalidation");
      handles.total_us = r.GetHistogram("dl_total_us",
                                        "end-to-end per-query latency (us)");
      handles.query_us = r.GetHistogram("dl_query_exec_us",
                                        "user-query execution latency (us)");
      handles.log_gen_us =
          r.GetHistogram("dl_log_gen_us", "usage-log generation latency (us)");
      handles.eval_us = r.GetHistogram("dl_policy_eval_us",
                                       "policy-evaluation wall latency (us)");
      handles.compact_us =
          r.GetHistogram("dl_compaction_us", "log-compaction latency (us)");
      handles.parse_us =
          r.GetHistogram("dl_parse_us", "SQL parse latency (us)");
      handles.bind_us =
          r.GetHistogram("dl_bind_us", "user-query bind latency (us)");
      handles.plan_us =
          r.GetHistogram("dl_plan_us", "plan-cache rewarm latency (us)");
      handles.queue_wait_us = r.GetHistogram(
          "dl_query_queue_wait_us",
          "per-query summed scheduler submit-to-start latency (us)");
      return handles;
    }();
    if (probe) {
      h.probes->Increment();
    } else {
      h.queries->Increment();
    }
    if (!admitted) h.rejected->Increment();
    h.evaluated->Increment(stats_.policies_evaluated);
    h.pruned->Increment(stats_.policies_pruned_early);
    h.rows_flushed->Increment(stats_.log_rows_flushed);
    h.rows_deleted->Increment(stats_.log_rows_deleted);
    h.index_probes->Increment(stats_.index_probes);
    h.index_hits->Increment(stats_.index_hits);
    h.range_probes->Increment(stats_.range_probes);
    h.range_hits->Increment(stats_.range_hits);
    h.morsels->Increment(stats_.morsels);
    h.steals->Increment(stats_.steals);
    h.sched_tasks->Increment(stats_.sched_tasks);
    h.plan_hits->Increment(stats_.plan_cache_hits);
    h.plan_misses->Increment(stats_.plan_cache_misses);
    h.incr_hits->Increment(stats_.incremental_hits);
    h.incr_fallbacks->Increment(stats_.incremental_fallbacks);
    h.incr_rebuilds->Increment(stats_.incremental_rebuilds);
    h.total_us->Observe(phases.total_us());
    h.query_us->Observe(phases.user_exec_us);
    h.log_gen_us->Observe(phases.log_gen_us);
    h.eval_us->Observe(phases.policy_eval_us);
    h.compact_us->Observe(phases.compaction_us);
    h.parse_us->Observe(phases.parse_us);
    h.bind_us->Observe(phases.bind_us);
    h.plan_us->Observe(phases.plan_us);
    if (stats_.sched_tasks > 0) {
      h.queue_wait_us->Observe(double(stats_.queue_wait_us));
    }

    // Windowed rollups (1s/10s/60s) share the same per-phase samples the
    // histograms above observe, so their percentiles agree by
    // construction (identical log2 bucketing).
    double rollup[RollupRegistry::kNumPhases];
    rollup[RollupRegistry::kTotal] = phases.total_us();
    rollup[RollupRegistry::kLogGen] = phases.log_gen_us;
    rollup[RollupRegistry::kPolicyEval] = phases.policy_eval_us;
    rollup[RollupRegistry::kCompaction] = phases.compaction_us;
    rollup[RollupRegistry::kUserExec] = phases.user_exec_us;
    RollupRegistry::Global().Record(!admitted, rollup);
    // Scheduler-utilization windows: the same trailing 1s/10s/60s views,
    // answering "how hard was the pool working just now". policy_cpu_us is
    // the query's parallel CPU spend (per-worker evaluation time summed).
    RollupRegistry::Global().RecordSched(stats_.morsels, stats_.steals,
                                         stats_.queue_wait_us,
                                         uint64_t(stats_.policy_cpu_us));
  }
}

}  // namespace datalawyer
