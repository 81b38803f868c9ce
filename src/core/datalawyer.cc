#include "core/datalawyer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
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

/// The attribution slot and span name of the kUnion statement.
const char kUnionName[] = "(union)";

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

/// Calls `fn` on every base table `stmt` reads, in every UNION member and
/// FROM subquery.
void ForEachTable(const SelectStmt& stmt,
                  const std::function<void(const std::string&)>& fn) {
  for (const SelectStmt* member = &stmt; member != nullptr;
       member = member->union_next.get()) {
    for (const TableRef& ref : member->from) {
      if (ref.IsSubquery()) {
        ForEachTable(*ref.subquery, fn);
      } else {
        fn(ref.table_name);
      }
    }
  }
}

/// True when the partial of `stmt` over `available` reads a generated
/// relation, and does so in every UNION member that reads the log: a
/// member that reads none carries no lineage, so its partial never depends
/// on the increment even when its full statement does.
bool EveryLogMemberTouches(const SelectStmt& stmt, const UsageLog& log,
                           const std::set<std::string>& available) {
  bool touches = false;
  for (const SelectStmt* member = &stmt; member != nullptr;
       member = member->union_next.get()) {
    auto aliases = LogAliasesOf(*member, log);
    bool member_touches = false;
    for (const auto& [alias, rel] : aliases) {
      member_touches = member_touches || available.count(rel) > 0;
    }
    if (!aliases.empty() && !member_touches) return false;
    touches = touches || member_touches;
  }
  return touches;
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

/// Per-policy precomputation for compaction, from the offline phase.
struct DataLawyer::PreparedPolicy {
  WitnessSet witnesses;
  /// witness_partials[rel][k]: the witness queries of `rel` as partials
  /// over the first k relations of generation_order_, for every k up to
  /// rel's position — preemptive compaction's dispensability test, planned
  /// into the cache. Absent for relations under full fallback.
  std::map<std::string, std::vector<std::vector<std::unique_ptr<SelectStmt>>>>
      witness_partials;
};

/// What one program does in one round of the check loop (Algorithm 3,
/// §4.4), compiled at Prepare. Round k <= |generation_order_| is an
/// interleaved round, whose steps need the first k relations; the closing
/// round |generation_order_| + 1 runs after every interleaved round.
struct DataLawyer::CheckStep {
  enum class Kind : uint8_t {
    kNothing,  ///< stay open
    kCheck,    ///< increment check, then kFull early if nothing joins
    kPartial,  ///< π_S over `needs`: an empty answer proves satisfaction
    kFull,     ///< the full statement decides
  };
  size_t round = 0;
  std::set<std::string> needs;  ///< generated before the round's waves
  /// §6: run the guard first, unless it fired in an earlier round; an
  /// empty answer prunes the policy. With `defer`, a fired guard's precise
  /// step runs in the round's second wave, after the policy's relations
  /// are generated, instead of in the guard's slot.
  bool guard = false;
  bool defer = false;
  Kind kind = Kind::kNothing;   ///< without a ready IncrementalState
  Kind ready = Kind::kNothing;  ///< with one
  /// kPartial's statement, and whether it is a §4.3 improved partial (an
  /// answer that uses no staged row prunes too).
  std::unique_ptr<SelectStmt> partial;
  bool improved = false;
};

/// One active policy's steps — or the kUnion statement's, with a null
/// policy — in ascending round order.
struct DataLawyer::CheckProgram {
  const Policy* policy = nullptr;
  const SelectStmt* full = nullptr;    ///< the statement kFull runs
  std::vector<const Policy*> members;  ///< the kUnion statement's policies
  std::string name;                    ///< attribution and span name
  /// Algorithm 1 line 1's π_1 ∪ ... ∪ π_k over `members`, built once.
  std::unique_ptr<SelectStmt> owned;
  std::vector<CheckStep> steps;
};

/// One program's outcomes in one round: an optional guard run, an
/// optional increment check, then what its step ran. Filled by a wave,
/// read only by the serial merge.
struct DataLawyer::WaveSlot {
  Status status = Status::OK();
  bool guard_ran = false;  ///< guard_out holds a successful guard run
  bool checked = false;    ///< an increment check ran, taking check_us
  double check_us = 0;
  CheckStep::Kind ran = CheckStep::Kind::kNothing;
  PolicyEvalOutput guard_out;
  PolicyEvalOutput out;

  /// The guard ran and found the policy suspicious.
  bool fired() const { return guard_ran && !guard_out.messages.empty(); }
};

DataLawyer::DataLawyer(Database* db, std::unique_ptr<UsageLog> log,
                       std::unique_ptr<Clock> clock, DataLawyerOptions options)
    : db_(db),
      log_(log != nullptr ? std::move(log)
                          : UsageLog::WithStandardGenerators()),
      clock_(clock != nullptr ? std::move(clock)
                              : std::make_unique<ManualClock>()),
      engine_(db),
      decisions_(options.decision_capacity) {
  set_options(options);
  system_catalog_ = std::make_unique<SystemCatalog>(engine_.db_catalog());
  RegisterSystemRelations();
}

DataLawyer::~DataLawyer() {
  if (pending_compaction_.valid()) pending_compaction_.wait();
}

void DataLawyer::set_options(DataLawyerOptions options) {
  options_ = options;
  prepared_valid_ = false;
  // Out-of-range thread counts are clamped rather than rejected — the
  // constructor cannot return a status, and a clamped instance is strictly
  // better than a crashed one. Callers who want the warning call
  // DataLawyerOptions::ClampThreadCounts() themselves.
  (void)options_.ClampThreadCounts();
  // Tracing is opt-in and process-global (one timeline); an instance turns
  // it on but never off, so a default-options instance elsewhere in the
  // process cannot silence an active trace.
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
  programs_.clear();
  prepared_.clear();
  constants_.clear();
  constants_catalog_.reset();
  witness_bodies_ = WitnessBodies{};
  compactor_.Reset();
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
  std::set<std::string> mentioned;  // the union of the log footprints
  PolicyAnalyzer analyzer(log_.get());
  for (Policy& policy : active_) {
    DL_RETURN_NOT_OK(analyzer.Analyze(&policy));
    if (!options_.enable_time_independent) {
      policy.time_independent = false;
      policy.rewritten = nullptr;
    }
    if (policy.guard != nullptr) {
      // The precise policy may only run after its guard's logs exist too.
      std::vector<std::string>& rels = policy.log_relations;
      for (const std::string& rel : CollectLogRelations(*policy.guard, *log_)) {
        if (!std::count(rels.begin(), rels.end(), rel)) rels.push_back(rel);
      }
    }
    mentioned.insert(policy.log_relations.begin(), policy.log_relations.end());
  }

  // Relations needed only by time-independent policies never persist
  // (the implementation note in §5.3).
  std::set<std::string> skip_retention;
  for (const std::string& rel : log_->RelationNamesInOrder()) {
    bool only_time_independent = mentioned.count(rel) > 0;
    for (const Policy& policy : active_) {
      for (const std::string& r : policy.log_relations) {
        if (r == rel && !policy.time_independent) only_time_independent = false;
      }
    }
    log_->SetPersisted(rel, !only_time_independent);
    if (only_time_independent) skip_retention.insert(rel);
  }

  // Equality hash indexes over the persisted log: policy predicates are
  // dominated by `uid = $user` / `ts = $now` conjuncts, which the executor
  // turns into index probes instead of full scans. Turning the option off
  // after indexes were built drops them, so the cache stamp (and the access
  // paths policies actually use) track the option.
  log_->SetIndexes(options_.enable_log_indexes);

  // Ordered timestamp indexes serve the sliding-window range predicates
  // (`p.ts > $now - 30`) every windowed policy carries; statistics feed the
  // planner's cost model. Both share the hash indexes' maintenance
  // discipline and, like them, are reflected in the cache stamp.
  log_->SetOrderedIndexes(options_.enable_ordered_log_indexes);
  log_->SetStats(options_.enable_stats_costing);

  // ---- per-policy witness sets and partial-policy caches ----
  generation_order_.clear();
  for (const std::string& rel : log_->RelationNamesInOrder()) {
    if (mentioned.count(rel)) generation_order_.push_back(rel);
  }
  const std::vector<std::string>& order = generation_order_;

  WitnessBuilder witness_builder(log_.get());
  for (Policy& policy : active_) {
    PreparedPolicy prep;
    // A time-independent policy needs no history: π_ind pins every log
    // alias's ts to the clock, so each of its witness queries carries
    // `dl_now.ts + 1 <= a.ts` and is empty under Clock::Tick's strictly
    // increasing contract — the same argument as skip_retention.
    if (options_.enable_log_compaction && !policy.time_independent) {
      DL_ASSIGN_OR_RETURN(prep.witnesses,
                          witness_builder.Build(policy.effective()));
    }
    if (options_.enable_preemptive_compaction) {
      for (const auto& [rel, witness] : prep.witnesses.per_relation) {
        if (witness.full_fallback) continue;
        auto& prefixes = prep.witness_partials[rel];
        std::set<std::string> available;
        for (const std::string& next : order) {
          prefixes.emplace_back();
          for (const auto& query : witness.queries) {
            prefixes.back().push_back(
                BuildPartialPolicy(*query, *log_, available));
          }
          if (next == rel) break;
          available.insert(next);
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
  std::set<std::string> read;
  for (const WitnessBody& body : witness_bodies_.bodies) {
    ForEachTable(*body.query, [&](const std::string& table) {
      read.insert(ToLower(table));
    });
  }
  witness_system_relations_.clear();
  for (const std::string& name : system_catalog_->Names()) {
    if (read.count(ToLower(name))) witness_system_relations_.push_back(name);
  }
  witness_tables_.clear();
  for (const std::string& name : read) {
    if (db_->FindTable(name) != nullptr) witness_tables_.push_back(name);
  }
  witness_table_versions_.clear();

  CompileCheckPrograms();

  // ---- per-policy plan cache ----
  WarmPlanCache();

  // The policy fan-out's workers start here, not inside the first timed
  // evaluation wave.
  if (options_.policy_threads > 0) EnsureScheduler(1);

  prepared_valid_ = true;
  return Status::OK();
}

void DataLawyer::CompileCheckPrograms() {
  using Kind = CheckStep::Kind;
  const std::vector<std::string>& order = generation_order_;
  // Reads only the clock and the Constants tables: nothing a query adds,
  // so the partial cannot depend on the log. Such a partial can only
  // prune, and the policy's later steps decide it the same way.
  auto inert = [&](const SelectStmt& partial) {
    bool inert = true;
    ForEachTable(partial, [&](const std::string& table) {
      bool fixed = EqualsIgnoreCase(table, UsageLog::ClockRelationName());
      for (const auto& [name, rel] : constants_) {
        fixed = fixed || EqualsIgnoreCase(table, name);
      }
      inert = inert && fixed;
    });
    return inert;
  };
  // Adds `program` with one step at the closing round, after every
  // interleaved round: the full statement, behind the guard (whose precise
  // step follows in the round's next wave) when there is one.
  auto add_closing = [&](CheckProgram program,
                         const std::vector<std::string>& needs) {
    CheckStep step;
    step.round = order.size() + 1;
    step.needs.insert(needs.begin(), needs.end());
    step.kind = step.ready = Kind::kFull;
    step.guard = step.defer =
        program.policy != nullptr && program.policy->guard != nullptr;
    program.steps.push_back(std::move(step));
    programs_.push_back(std::move(program));
  };

  // kUnion (Algorithm 1 line 1): π_1 ∪ ... ∪ π_k over the guardless
  // single-message policies, built once here so it is planned into the
  // cache. Its one shared full step merges first.
  auto in_union = [&](const Policy& policy) {
    const SelectStmt& stmt = policy.effective();
    return options_.strategy == EvalStrategy::kUnion &&
           policy.guard == nullptr && stmt.items.size() == 1 &&
           stmt.items[0].expr->kind() != ExprKind::kStar;
  };
  CheckProgram unioned;
  unioned.name = kUnionName;
  std::vector<std::string> union_needs;
  for (const Policy& policy : active_) {
    if (!in_union(policy)) continue;
    unioned.members.push_back(&policy);
    union_needs.insert(union_needs.end(), policy.log_relations.begin(),
                       policy.log_relations.end());
  }
  const bool unioning = unioned.members.size() > 1;
  if (unioning) {
    std::unique_ptr<SelectStmt>* link = &unioned.owned;
    SelectStmt* tail = nullptr;
    for (const Policy* member : unioned.members) {
      // UNION ALL: a violation test needs no dedup.
      if (tail != nullptr) tail->union_all = true;
      *link = member->effective().Clone();
      tail = link->get();
      while (tail->union_next != nullptr) tail = tail->union_next.get();
      link = &tail->union_next;
    }
    unioned.full = unioned.owned.get();
    add_closing(std::move(unioned), union_needs);
  }

  for (const Policy& policy : active_) {
    if (unioning && in_union(policy)) continue;
    CheckProgram program;
    program.policy = &policy;
    program.name = policy.name;
    program.full = &policy.effective();
    // Interleaving (§4.4) can dismiss a policy from a partial result when
    // it is monotone, or when every member groups: no joined rows, no
    // groups, no output. The others run at the closing round.
    if (options_.strategy != EvalStrategy::kInterleaved ||
        !(policy.monotone || AllMembersGrouped(*policy.stmt))) {
      add_closing(std::move(program),
                  policy.guard != nullptr
                      ? CollectLogRelations(*policy.guard, *log_)
                      : policy.log_relations);
      continue;
    }
    // Every pair of log aliases equi-joins on ts: a tuple that uses one
    // staged row uses staged rows only.
    bool ts_joined = TimestampsAllJoined(policy.effective(), *log_);
    std::vector<std::string> guard_relations;
    if (policy.guard != nullptr) {
      guard_relations = CollectLogRelations(*policy.guard, *log_);
    }
    // One step per round up to the covering one, whose full step decides.
    std::set<std::string> available;
    auto within = [&](const std::vector<std::string>& rels) {
      return std::all_of(rels.begin(), rels.end(), [&](const std::string& r) {
        return available.count(r) > 0;
      });
    };
    bool covered = false;
    for (size_t k = 0; !covered; ++k) {
      if (k > 0) available.insert(order[k - 1]);
      CheckStep step;
      step.round = k;
      step.needs = available;
      // A round that generated nothing the policy (or its guard) reads
      // would rerun the last round's guard and partial over the same rows:
      // it cannot prune what they did not, so it stays `nothing`.
      if (k > 0 && !std::count(policy.log_relations.begin(),
                               policy.log_relations.end(), order[k - 1])) {
        program.steps.push_back(std::move(step));
        continue;
      }
      step.guard = policy.guard != nullptr && within(guard_relations);
      covered = within(policy.log_relations);
      if (covered) {
        step.kind = step.ready = Kind::kFull;
      } else {
        // A ready state answers at the covering round, or earlier, once an
        // increment check proves this round's staged rows cannot join in.
        step.ready = ts_joined && k > 0 ? Kind::kCheck : Kind::kNothing;
        auto partial = BuildPartialPolicy(policy.effective(), *log_, available);
        if (!policy.monotone) StripHaving(partial.get());
        if (!inert(*partial)) {
          step.kind = Kind::kPartial;
          step.partial = std::move(partial);
          step.improved = options_.enable_improved_partial && policy.monotone &&
                          ts_joined &&
                          EveryLogMemberTouches(policy.effective(), *log_,
                                                available);
        }
      }
      program.steps.push_back(std::move(step));
    }
    programs_.push_back(std::move(program));
  }
}

std::string DataLawyer::DescribeCheckPrograms() const {
  auto kind = [](CheckStep::Kind k) {
    static const char* const kNames[] = {"nothing", "check", "partial", "full"};
    return std::string(kNames[size_t(k)]);
  };
  std::string out;
  for (const CheckProgram& program : programs_) {
    out += program.name + ":";
    for (const CheckStep& step : program.steps) {
      std::vector<std::string> needs;
      for (const std::string& rel : generation_order_) {
        if (step.needs.count(rel)) needs.push_back(rel);
      }
      out += " " + std::to_string(step.round) + "[" + Join(needs, ",") + "] ";
      if (step.guard) out += step.defer ? "guard>>" : "guard>";
      out += kind(step.kind);
      if (step.improved) out += "+improved";
      if (step.ready != step.kind) out += "|" + kind(step.ready);
      out += ";";
    }
    out += "\n";
  }
  return out;
}

uint64_t DataLawyer::CacheStamp() const {
  // Any bit flip invalidates every cached plan: schema version (DDL, or a
  // stats-drift rewarm via Database::BumpVersion), hash-index state,
  // ordered-index state, and whether stats-based costing is live.
  return db_->version() * 8 + (log_->indexes_enabled() ? 4 : 0) +
         (log_->ordered_indexes_enabled() ? 2 : 0) +
         (log_->stats_enabled() ? 1 : 0);
}

Result<const PlanCache::Entry*> DataLawyer::CachedPlan(
    const SelectStmt& stmt) const {
  const PlanCache::Entry* entry = plan_cache_.Lookup(stmt);
  if (entry == nullptr) {
    return Status::Internal("policy statement missing from the plan cache");
  }
  DL_RETURN_NOT_OK(entry->status);
  return entry;
}

double DataLawyer::RevalidatePlanCache() {
  // Stats drift: costed plans embed cardinality-derived access-path and
  // join-order choices, so once a log main table has grown or shrunk 2x
  // past a 256-row floor since the plans were costed, bump the schema
  // version — the stamp check below then rewarms against fresh statistics.
  // The floor keeps tiny tables (whose plans are all equivalent anyway)
  // from churning the cache.
  if (log_->stats_enabled()) {
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
  // DDL between queries (it bypasses the policy gate) or an index flag
  // flip invalidates every cached plan.
  if (plan_cache_.stamp() == CacheStamp()) return 0;
  auto start = Now();
  WarmPlanCache();
  return UsSince(start);
}

void DataLawyer::WarmPlanCache() {
  uint64_t stamp = CacheStamp();
  // A stamp change after the initial warm means every cached plan just
  // became untrusted — DDL bumped the schema version, or the log-index
  // state flipped. Count it once on the global miss counter so invalidation
  // churn is observable even though steady-state per-query stats stay at
  // zero misses. The first population is not an invalidation.
  if (options_.enable_metrics && plan_cache_warmed_ &&
      plan_cache_.stamp() != stamp) {
    MetricsRegistry::Global()
        .GetCounter("dl_plan_cache_misses_total",
                    "plan-cache invalidations after the first warm")
        ->Increment();
  }
  plan_cache_.Clear();
  plan_cache_.set_stamp(stamp);
  plan_cache_warmed_ = true;
  incremental_class_.clear();
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
    PlanCache::Entry& entry =
        plan_cache_.Warm(policy.effective(), catalog.view(), planner);
    // Classify the full policy statement and attach maintenance state to
    // incrementalizable entries. Clear() above already destroyed any prior
    // state, which is exactly the invalidation contract: DDL, index-flag,
    // and stats-drift stamp changes force a rebuild from scratch.
    if (options_.enable_incremental_eval) {
      if (entry.status.ok()) {
        entry.incremental = IncrementalState::Build(
            policy.effective(), *entry.bound, *log_, policy_base_catalog());
      }
      incremental_class_[policy.name] =
          entry.incremental != nullptr ? "incremental" : "full-only";
    }
    if (policy.guard != nullptr) {
      plan_cache_.Warm(*policy.guard, catalog.view(), planner);
    }
  }
  for (const CheckProgram& program : programs_) {
    if (program.policy == nullptr) {
      plan_cache_.Warm(*program.full, catalog.view(), planner);
    }
    for (const CheckStep& step : program.steps) {
      if (step.partial != nullptr) {
        plan_cache_.Warm(*step.partial, catalog.view(), planner);
      }
    }
  }
  // The cache stamp and the stats-drift rewarm cover the witness bodies
  // like the policy plans; the compactor runs them directly from these
  // entries, or returns their warm error.
  for (WitnessBody& body : witness_bodies_.bodies) {
    const PlanCache::Entry& entry =
        plan_cache_.Warm(*body.query, catalog.view(), planner);
    body.plan = entry.status.ok() ? Result<const PhysicalPlan*>(&entry.plan)
                                  : entry.status;
  }
  // Preemptive compaction's witness partials reference dl_now besides the
  // policy catalog.
  AddNowRelation(&catalog, clock_->Now());
  for (const PreparedPolicy& prep : prepared_) {
    for (const auto& [rel, prefixes] : prep.witness_partials) {
      for (const auto& partials : prefixes) {
        for (const std::unique_ptr<SelectStmt>& partial : partials) {
          plan_cache_.Warm(*partial, catalog.view(), planner);
        }
      }
    }
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
  if (!prepared_valid_) DL_RETURN_NOT_OK(Prepare());
  stats_ = ExecutionStats{};
  auto parse_start = Now();
  DL_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  stats_.parse_us = UsSince(parse_start);
  if (stmt.kind != StatementKind::kSelect) {
    // DDL/DML bypasses policy checking (policies govern reads, §3);
    // EXPLAIN is a diagnostic and bypasses it the same way — but it runs
    // with the same execution options a checked query would use, so
    // EXPLAIN ANALYZE profiles production splits (and morsel timing). A
    // pending background compaction reads the tables the witness bodies
    // join; a write or a DROP must not overlap it.
    DL_RETURN_NOT_OK(Flush());
    if (morsel_enabled() && stmt.kind == StatementKind::kExplain) {
      EnsureScheduler(1);
    }
    return engine_.ExecuteStatement(stmt, PlanExecOptions());
  }
  return RunChecked(sql, *stmt.select, context, clock_->Tick(),
                    /*probe=*/false);
}

Result<QueryResult> DataLawyer::RunChecked(const std::string& sql,
                                           const SelectStmt& stmt,
                                           const QueryContext& context,
                                           int64_t ts, bool probe) {
  // Scheduler attribution brackets the whole checked pipeline: every task
  // this thread (and, transitively, its worker tasks) submits is charged
  // to query_group_, so the counts are exact per-query — a concurrent
  // background compaction runs detached and never leaks in.
  stats_.ts = ts;
  query_group_.Reset();
  attribution_.assign(active_.size() + 1, PolicyStats{});
  // A probe reuses the checked path with compaction, commit and execution
  // suppressed; its staged increments are discarded afterwards.
  probe_mode_ = probe;
  Result<QueryResult> result = [&] {
    ScopedTaskGroup group(&query_group_);
    return ExecuteChecked(stmt, context, ts);
  }();
  probe_mode_ = false;
  stats_.plan_cache_misses = plan_cache_misses_.exchange(0);
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

  static const std::string kUnion = kUnionName;
  for (size_t i = 0; i < attribution_.size(); ++i) {
    const PolicyStats& a = attribution_[i];
    if (a.evaluations == 0 && a.prunes == 0 && a.rejections == 0 &&
        a.eval_us == 0) {
      continue;
    }
    const std::string& name = i < active_.size() ? active_[i].name : kUnion;
    PolicyStats& s = policy_stats_[name];
    s.name = name;
    s += a;
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
  if (!prepared_valid_) DL_RETURN_NOT_OK(Prepare());
  DL_RETURN_NOT_OK(Flush());
  stats_ = ExecutionStats{};
  auto parse_start = Now();
  DL_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  stats_.parse_us = UsSince(parse_start);
  if (stmt.kind != StatementKind::kSelect) {
    return Status::OK();  // DDL/DML bypasses policies
  }
  // Probe at the next timestamp without consuming it.
  return RunChecked(sql, *stmt.select, context, clock_->Now() + 1,
                    /*probe=*/true)
      .status();
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
  return ExplainPolicyPlan(name, /*analyze=*/false);
}

Result<std::string> DataLawyer::ExplainAnalyzePolicy(const std::string& name) {
  return ExplainPolicyPlan(name, /*analyze=*/true);
}

Result<std::string> DataLawyer::ExplainPolicyPlan(const std::string& name,
                                                  bool analyze) {
  if (!prepared_valid_) DL_RETURN_NOT_OK(Prepare());
  // Against the committed log: the state a real evaluation would see.
  DL_RETURN_NOT_OK(Flush());
  for (const Policy& policy : active_) {
    if (policy.name != name) continue;
    // The plan the next query would run: rewarmed if stale, never bypassed.
    RevalidatePlanCache();
    DL_ASSIGN_OR_RETURN(const PlanCache::Entry* cached,
                        CachedPlan(policy.effective()));
    UsageLog::PolicyCatalog catalog =
        log_->MakeCatalog(policy_base_catalog(), clock_->Now());
    // Same options a real evaluation would use, so the profiled
    // morsel/partition counts match production execution.
    if (analyze && morsel_enabled()) EnsureScheduler(1);
    return analyze ? ExplainAnalyzePlan(cached->plan, catalog.view(),
                                        PlanExecOptions())
                   : RenderPhysicalPlan(cached->plan, catalog.view());
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

  ExecOptions exec_options = PlanExecOptions();
  exec_options.capture_lineage = check_increment_dependence;
  exec_options.enable_stats_costing = options_.enable_stats_costing;
  PolicyEvalOutput out;
  // Every registered statement runs from its cached physical plan — zero
  // bind/plan work per evaluation — or returns its warm error.
  Result<const PlanCache::Entry*> lookup = CachedPlan(stmt);
  if (!lookup.ok()) {
    plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    return lookup.status();
  }
  const PlanCache::Entry* cached = *lookup;
  // Incremental fast path: answer from maintained state + the staged
  // increment, skipping the plan execution entirely. Only full policy
  // statements carry state (guards/partials/union never do), and a decline
  // falls through to the identical-verdict full evaluation below.
  if (cached->incremental != nullptr && !check_increment_dependence) {
    IncrementalState::Verdict verdict =
        cached->incremental->Evaluate(stats_.ts);
    if (verdict.supported) {
      if (verdict.violated) {
        out.messages.push_back(cached->incremental->message());
      }
      out.incremental_hit = true;
      out.eval_us = UsSince(t0);
      return out;
    }
    out.incremental_fallback = true;
  }
  PlanExecutor plan_exec(catalog, exec_options);
  DL_ASSIGN_OR_RETURN(QueryResult result, plan_exec.Run(cached->plan));
  out.scan = plan_exec.scan_stats();

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
    if (std::find(out.messages.begin(), out.messages.end(), msg) ==
        out.messages.end()) {
      out.messages.push_back(std::move(msg));
    }
    if (out.messages.size() >= 8) break;  // cap the report
  }
  if (out.messages.empty() && !result.rows.empty()) {
    out.messages.push_back("policy violated");
  }
  out.eval_us = UsSince(t0);
  return out;
}

PolicyStats& DataLawyer::AttributionFor(const Policy* policy) {
  // Every attributed policy is an element of active_, so its position in
  // active_ is its slot.
  return attribution_[policy != nullptr ? size_t(policy - active_.data())
                                        : active_.size()];
}

void DataLawyer::RecordEvalCounters(const PolicyEvalOutput& out,
                                    const Policy* attribute_to) {
  ++stats_.policies_evaluated;
  ++stats_.plan_cache_hits;
  stats_.policy_cpu_us += out.eval_us;
  stats_.index_probes += out.scan.index_probes;
  stats_.index_hits += out.scan.index_hits;
  stats_.range_probes += out.scan.range_probes;
  stats_.range_hits += out.scan.range_hits;
  stats_.morsels += out.scan.morsels;
  PolicyStats& slot = AttributionFor(attribute_to);
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

ExecOptions DataLawyer::PlanExecOptions() const {
  ExecOptions exec;
  if (morsel_enabled() && scheduler_ != nullptr) {
    // Workers already running policy tasks push their morsels onto their
    // own deques, so plan-level parallelism composes with the fan-out.
    exec.scheduler = scheduler_.get();
    exec.morsel_size = options_.morsel_size;
    // morsel_feedback_ is mutable and lock-free; suggestions are frozen
    // for the duration of a query (Roll() runs only at the serial head),
    // so concurrent statements all see the same sizes.
    if (adaptive_morsel_enabled()) exec.morsel_feedback = &morsel_feedback_;
  }
  return exec;
}

TaskScheduler* DataLawyer::EnsureScheduler(size_t min_threads) {
  // One scheduler serves policy fan-out and morsel execution; size it to
  // the larger of the two knobs, never their sum — nested morsel tasks
  // share the same workers instead of oversubscribing the machine.
  size_t want = std::max(
      min_threads, size_t(std::max(0, options_.policy_threads)));
  if (morsel_enabled()) {
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
  // The largest generated prefix: when the generated set is not a prefix,
  // a partial over fewer relations only enlarges its result.
  size_t k = 0;
  while (k < generation_order_.size() &&
         log_->IsGenerated(generation_order_[k])) {
    ++k;
  }

  // Built on first use: a relation no witness reads is dispensable as is.
  std::optional<UsageLog::PolicyCatalog> catalog;
  for (const PreparedPolicy& prep : prepared_) {
    auto it = prep.witnesses.per_relation.find(name);
    if (it == prep.witnesses.per_relation.end()) continue;
    if (it->second.full_fallback) return false;
    if (!catalog.has_value()) {
      catalog = log_->MakeCatalog(policy_base_catalog(), ts);
      AddNowRelation(&*catalog, ts);
    }
    const auto& prefixes = prep.witness_partials.at(name);
    for (const auto& partial : prefixes[std::min(k, prefixes.size() - 1)]) {
      DL_ASSIGN_OR_RETURN(const PlanCache::Entry* cached, CachedPlan(*partial));
      PlanExecutor exec(catalog->view(), PlanExecOptions());
      DL_ASSIGN_OR_RETURN(QueryResult result, exec.Run(cached->plan));
      if (!result.empty()) return false;
    }
  }
  return true;
}

Status DataLawyer::CompactLog(int64_t ts) {
  // A stamp sees the database tables its body joins as they were. After a
  // write to one (or DDL) since the last compaction, and after every query
  // for the dl_* snapshots, the compactor restamps the whole log against
  // the tables as they are, as a whole-log mark would see them.
  std::vector<uint64_t> versions{db_->version()};
  for (const std::string& name : witness_tables_) {
    const Table* table = db_->FindTable(name);
    versions.push_back(table != nullptr ? uint64_t(table->next_row_id()) : 0);
    versions.push_back(table != nullptr ? table->mutation_epoch() : 0);
  }
  if (versions != witness_table_versions_ ||
      !witness_system_relations_.empty()) {
    compactor_.Reset();
    witness_table_versions_ = std::move(versions);
  }
  auto compact = [this, ts]() -> Result<CompactionStats> {
    return compactor_.CompactAndFlush(witness_bodies_, policy_base_catalog(),
                                      ts);
  };
  if (options_.async_compaction) {
    // §5.1: return the result before compaction finishes. The worker owns
    // the log tables and the compactor's stamps, and reads the witness
    // bodies and their cached plans, until the next Flush waits on it.
    // Detached from the query's attribution group: compaction outlives the
    // query, and its tasks must not inflate the query's scheduler
    // footprint.
    //
    // The dl_* relations the bodies read are resolved here, serially: the
    // worker then stamps against the snapshot sync compaction would see,
    // instead of building one while this query's decision is appended and
    // its attribution folded.
    for (const std::string& name : witness_system_relations_) {
      system_catalog_->Find(name);
    }
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
  DL_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound, CheckHead(stmt, ts));
  // f_Provenance's lineage run, if any, is the query's only run.
  QueryResult answer;
  GenerationInput input;
  input.query = &stmt;
  input.bound = bound.get();
  input.db_catalog = system_catalog_.get();
  input.context = &context;
  input.exec = PlanExecOptions();
  input.answer = &answer;
  input.morsels = &stats_.morsels;
  DL_RETURN_NOT_OK(GenerateAndCheck(ts, input));
  // Dry run (WouldAllow): all policies passed; do not touch the log or run
  // the query.
  if (probe_mode_) return QueryResult{};
  DL_RETURN_NOT_OK(GenerateRestAndCompact(ts, input));
  return ExecuteUserQuery(*bound, &answer);
}

Result<std::unique_ptr<BoundQuery>> DataLawyer::CheckHead(
    const SelectStmt& stmt, int64_t ts) {
  // A pending background compaction owns the log tables; wait it out.
  DL_RETURN_NOT_OK(Flush());

  // Morsel execution hands the scheduler to every plan executor below;
  // create it here in the serial head — EvalPolicyStatement is const and
  // runs concurrently, so it can only read scheduler_, never grow it.
  if (morsel_enabled()) EnsureScheduler(1);

  // Fold last query's morsel observations into the adaptive sizer and
  // publish new suggestions. Serial head, no query in flight: every
  // executor this query sees the same sizes, so morsel boundaries are
  // stable for the whole query.
  if (adaptive_morsel_enabled()) morsel_feedback_.Roll();

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

  // Revalidate the plan cache against stats drift and the schema/index
  // epoch. Rebuilding here — in the serial head, before the evaluation
  // fan-out — keeps Lookup read-only for the pool workers.
  stats_.plan_us = RevalidatePlanCache();

  // Incremental maintenance, still in the serial head: fold the committed
  // log growth into every policy's materialized state and roll the window
  // edges to `ts`, before the evaluation fan-out reads the states
  // concurrently. Timed into plan_us (it is plan-shaped warm work), so the
  // phase identity total_ms == sum-of-profile-phases is preserved.
  if (options_.enable_incremental_eval) {
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
  return bound;
}

Status DataLawyer::GenerateAndCheck(int64_t ts, const GenerationInput& input) {
  UsageLog::PolicyCatalog catalog =
      log_->MakeCatalog(policy_base_catalog(), ts);
  last_violations_.clear();
  // Per program: its next step, and whether its guard fired (the policy is
  // suspicious: the precise check is required).
  const size_t n = programs_.size();
  std::vector<size_t> next(n, 0);
  std::vector<bool> fired(n, false);
  // Log generation stays serial, ahead of each wave, since it mutates the
  // staging deltas.
  std::set<std::string> needs;
  auto generate_needs = [&]() -> Status {
    for (const std::string& rel : generation_order_) {
      if (needs.count(rel)) DL_RETURN_NOT_OK(GenerateLog(rel, ts, input));
    }
    needs.clear();
    return Status::OK();
  };

  std::vector<size_t> due;  // programs with a step this round, merge order
  std::vector<WaveSlot> slots;
  for (size_t round = 0; round <= generation_order_.size() + 1; ++round) {
    due.clear();
    for (size_t p = 0; p < n; ++p) {
      if (next[p] < programs_[p].steps.size() &&
          programs_[p].steps[next[p]].round == round) {
        due.push_back(p);
      }
    }
    if (due.empty()) continue;
    auto step = [&](size_t i) -> const CheckStep& {
      return programs_[due[i]].steps[next[due[i]]];
    };
    for (size_t i = 0; i < due.size(); ++i) {
      needs.insert(step(i).needs.begin(), step(i).needs.end());
    }
    DL_RETURN_NOT_OK(generate_needs());
    slots.assign(due.size(), WaveSlot{});
    size_t decisive = RunPolicyWave(due.size(), [&](size_t i) {
      size_t p = due[i];
      return RunStep(programs_[p], step(i), fired[p], catalog.view(), ts,
                     &slots[i]);
    });
    // The precise steps behind the fired guards the merge reaches, once
    // their policies' relations exist.
    std::vector<size_t> deferred;
    for (size_t i = 0; i < decisive; ++i) {
      if (!step(i).defer || !slots[i].fired()) continue;
      deferred.push_back(i);
      const std::vector<std::string>& rels =
          programs_[due[i]].policy->log_relations;
      needs.insert(rels.begin(), rels.end());
    }
    DL_RETURN_NOT_OK(generate_needs());
    RunPolicyWave(deferred.size(), [&](size_t j) {
      size_t i = deferred[j];
      return RunStep(programs_[due[i]], step(i), /*guard_fired=*/true,
                     catalog.view(), ts, &slots[i]);
    });
    for (size_t i = 0; i < due.size(); ++i) {
      size_t p = due[i];
      fired[p] = fired[p] || slots[i].fired();
      DL_ASSIGN_OR_RETURN(bool open, MergeSlot(programs_[p], step(i),
                                               &slots[i], catalog.view()));
      next[p] = open ? next[p] + 1 : programs_[p].steps.size();
    }
  }
  return Status::OK();
}

bool DataLawyer::RunStep(const CheckProgram& program, const CheckStep& step,
                         bool guard_fired, const CatalogView* catalog,
                         int64_t ts, WaveSlot* s) const {
  using Kind = CheckStep::Kind;
  // Evaluates one statement into `*out`, or its error into s->status;
  // false on error. Only the const core runs.
  auto eval = [&](const SelectStmt& stmt, bool check_dep, const char* label,
                  PolicyEvalOutput* out) {
    Result<PolicyEvalOutput> result = EvalPolicyStatement(
        stmt, catalog, check_dep, SpanLabel(label, program.name));
    s->status = result.status();
    if (result.ok()) *out = std::move(*result);
    return result.ok();
  };
  if (step.guard && !guard_fired) {
    s->guard_ran = eval(*program.policy->guard, false, "policy.guard:",
                        &s->guard_out);
    if (!s->guard_ran) return true;
    if (s->guard_out.messages.empty() || step.defer) return false;
  }
  // The ready variant, when Advance brought the policy's state to `ts`.
  // Only the policy's own deciding step evaluates (and may poison) it.
  Kind kind = step.kind;
  const IncrementalState* state = nullptr;
  if (step.ready != step.kind) {
    const PlanCache::Entry* entry = plan_cache_.Lookup(*program.full);
    if (entry != nullptr && entry->incremental != nullptr &&
        entry->incremental->Ready(ts)) {
      state = entry->incremental.get();
      kind = step.ready;
    }
  }
  if (kind == Kind::kCheck) {
    // No staged row generated so far joins in, so none can (the policy is
    // ts-joined): the answer over L ∪ Δ is the answer over L, from state,
    // or from the full plan if the state declines.
    ScopedSpan span(SpanLabel("policy.increment_check:", program.name),
                    "policy");
    auto t0 = Now();
    bool joins = state->IncrementMayJoin(step.needs, ts);
    s->checked = true;
    s->check_us = UsSince(t0);
    kind = joins ? Kind::kNothing : Kind::kFull;
  }
  s->ran = kind;
  switch (kind) {
    case Kind::kNothing:
    case Kind::kCheck:
      return false;
    case Kind::kPartial:
      return !eval(*step.partial, step.improved, "policy.partial:", &s->out);
    case Kind::kFull:
      break;
  }
  return !eval(*program.full, false, "policy.eval:", &s->out) ||
         !s->out.messages.empty();
}

Result<bool> DataLawyer::MergeSlot(const CheckProgram& program,
                                   const CheckStep& step, WaveSlot* s,
                                   const CatalogView* catalog) {
  using Kind = CheckStep::Kind;
  const Policy* policy = program.policy;
  PolicyStats& slot = AttributionFor(policy);
  // A guard, partial, or increment check dismissed the policy early.
  auto prune = [&] {
    ++stats_.policies_pruned_early;
    ++slot.prunes;
    return false;
  };
  if (s->checked) {
    // Not a statement: its own counter, its time charged like one.
    ++stats_.increment_checks;
    stats_.policy_cpu_us += s->check_us;
    slot.eval_us += s->check_us;
  }
  if (s->guard_ran) {
    RecordEvalCounters(s->guard_out, policy);
    if (s->guard_out.messages.empty()) return prune();
  }
  DL_RETURN_NOT_OK(s->status);
  if (s->ran == Kind::kNothing) return true;
  RecordEvalCounters(s->out, policy);
  if (s->ran == Kind::kPartial) {
    // An empty partial proves satisfaction; so does one that held in the
    // past with nothing from the current increment contributing (§4.3
    // improved partial policies).
    ++slot.partials_run;
    if (!s->out.messages.empty() &&
        !(step.improved && !s->out.depends_on_increment)) {
      return true;
    }
    ++slot.partials_pruned;
    return prune();
  }
  if (s->out.messages.empty()) {
    return s->checked ? prune() : false;  // answered before covered
  }
  if (policy != nullptr) {
    last_violations_.push_back(
        ViolationReport{policy->name, policy->sql, s->out.messages});
    ++slot.rejections;
    return Reject(policy, std::move(s->out.messages), catalog);
  }
  // The kUnion statement: re-evaluate its members individually to
  // attribute the violation (§6 debugging); the extra cost is paid only on
  // rejection.
  for (const Policy* member : program.members) {
    Result<PolicyEvalOutput> re =
        EvalPolicyStatement(member->effective(), catalog, false,
                            SpanLabel("policy.eval:", member->name));
    if (!re.ok()) continue;
    RecordEvalCounters(*re, member);
    stats_.policy_wall_us += re->eval_us;
    if (re->messages.empty()) continue;
    if (last_violations_.empty()) policy = member;
    last_violations_.push_back(
        ViolationReport{member->name, member->sql, re->messages});
    ++AttributionFor(member).rejections;
  }
  return Reject(policy, std::move(s->out.messages), catalog);
}

Status DataLawyer::Reject(const Policy* violated,
                          std::vector<std::string> violations,
                          const CatalogView* catalog) {
  // Capture the violating log rows while the staged increment still
  // exists — the witness tuples behind this rejection — by re-running the
  // policy's cached plan with lineage. The optimizer-off evaluation is
  // only the reference the witness differential compares against.
  // Best-effort: a capture error degrades the explanation, never the
  // verdict.
  if (decisions_.enabled() && violated != nullptr) {
    ScopedSpan span("decision.witness", "policy");
    Result<QueryResult> evaluated = Status::Internal("no witness evaluation");
    if (options_.decision_witness_naive) {
      ExecOptions naive;
      naive.capture_lineage = true;
      naive.enable_optimizer = false;
      evaluated = Executor(catalog, naive).Execute(violated->effective());
    } else if (auto cached = CachedPlan(violated->effective()); cached.ok()) {
      ExecOptions exec_options = PlanExecOptions();
      exec_options.capture_lineage = true;
      evaluated = PlanExecutor(catalog, exec_options).Run((*cached)->plan);
    }
    if (evaluated.ok()) {
      WitnessCaptureResult captured = CaptureViolationWitnesses(
          *evaluated, catalog, *log_, options_.decision_witness_limit);
      last_witnesses_.clear();
      for (CapturedWitness& c : captured.rows) {
        last_witnesses_.push_back(DecisionWitness{std::move(c.relation),
                                                  c.row_id, c.from_increment,
                                                  c.ts, std::move(c.values)});
      }
      last_witnesses_truncated_ = captured.truncated;
    }
  }
  log_->DiscardStaged();
  stats_.rejected = true;
  std::string message = Join(violations, "; ");
  stats_.violations = std::move(violations);
  return Status::PolicyViolation(message);
}

Status DataLawyer::GenerateRestAndCompact(int64_t ts,
                                          const GenerationInput& input) {
  // ---- §4.4 step 3: the increments the checks left ungenerated ----
  // Eq. 1 logs every admitted query's usage. A relation the checks did not
  // need is generated now, unless compaction proves its increment
  // dispensable (§4.3 preemptive compaction) or it is never persisted.
  for (const std::string& rel : generation_order_) {
    if (log_->IsGenerated(rel)) continue;
    if (!options_.enable_log_compaction) {
      if (!log_->IsPersisted(rel)) continue;
    } else if (options_.enable_preemptive_compaction) {
      // Deciding to skip a generation is usage-tracking work too.
      auto t0 = Now();
      Result<bool> dispensable = IncrementProvablyDispensable(rel, ts);
      stats_.log_gen_ms += MsSince(t0);
      DL_RETURN_NOT_OK(dispensable.status());
      if (*dispensable) {
        ++stats_.logs_skipped_preemptively;
        continue;
      }
    }
    DL_RETURN_NOT_OK(GenerateLog(rel, ts, input));
  }

  // ---- §4.4 step 4: compact, or flush the full increment ----
  // §5.2: eager pruning after every query is not necessary; with a
  // compaction period > 1 the increment is flushed unpruned and the
  // witness queries run every period-th query.
  bool compact = false;
  if (options_.enable_log_compaction) {
    compact = ++queries_since_compaction_ >= options_.compaction_period;
    if (compact) queries_since_compaction_ = 0;
  }
  if (compact) return CompactLog(ts);
  DL_TRACE_SPAN("log.commit", "log");
  auto t0 = Now();
  stats_.log_rows_flushed = log_->CommitStaged();
  stats_.compact_insert_ms = MsSince(t0);
  return Status::OK();
}

Result<QueryResult> DataLawyer::ExecuteUserQuery(const BoundQuery& bound,
                                                 QueryResult* answer) {
  // The lineage run's rows with the lineage dropped, or, when no provenance
  // was generated, one run of the bound query. Through the system catalog,
  // so SELECTs over dl_* relations execute like any other read.
  DL_TRACE_SPAN("exec.user_query", "exec");
  auto t0 = Now();
  Executor user_exec(system_catalog_.get(), PlanExecOptions());
  Result<QueryResult> result =
      QueryResult{std::move(answer->schema), std::move(answer->rows)};
  if (!answer->has_lineage) result = user_exec.ExecuteBound(bound);
  *answer = QueryResult{};  // frees the lineage inside the timed phase
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
    report.push_back(it != policy_stats_.end() ? it->second : PolicyStats());
    report.back().name = policy.name;
    auto cls = incremental_class_.find(policy.name);
    if (cls != incremental_class_.end()) {
      report.back().incremental_class = cls->second;
    } else if (!options_.enable_incremental_eval) {
      report.back().incremental_class = "off";
    }
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
        .AddColumn("incremental_fallbacks", ValueType::kInt64)
        .AddColumn("partials_run", ValueType::kInt64)
        .AddColumn("partials_pruned", ValueType::kInt64);
    std::vector<Row> rows;
    for (const PolicyStats& s : PolicyReport()) {
      rows.push_back(Row{
          Value(s.name), Value(int64_t(s.evaluations)),
          Value(int64_t(s.prunes)), Value(int64_t(s.rejections)),
          Value(s.eval_us),
          s.incremental_class.empty() ? Value() : Value(s.incremental_class),
          Value(int64_t(s.incremental_hits)),
          Value(int64_t(s.incremental_fallbacks)),
          Value(int64_t(s.partials_run)), Value(int64_t(s.partials_pruned))});
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
    auto add_outcome = [&](const std::string& name, const PolicyStats& a) {
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
      add_outcome(kUnionName, attribution_.back());
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
    struct CounterOf {
      const char* name;
      const char* help;
      size_t ExecutionStats::*field;
    };
    static const CounterOf kCounters[] = {
        {"dl_policy_evaluations_total", "policy statements evaluated",
         &ExecutionStats::policies_evaluated},
        {"dl_policies_pruned_total", "policies dismissed early",
         &ExecutionStats::policies_pruned_early},
        {"dl_log_rows_flushed_total", "usage-log rows persisted",
         &ExecutionStats::log_rows_flushed},
        {"dl_log_rows_deleted_total", "usage-log rows compacted away",
         &ExecutionStats::log_rows_deleted},
        {"dl_index_probes_total", "equality conjuncts probed",
         &ExecutionStats::index_probes},
        {"dl_index_hits_total", "scans served by an index",
         &ExecutionStats::index_hits},
        {"dl_range_probes_total",
         "range conjuncts probed against an ordered index",
         &ExecutionStats::range_probes},
        {"dl_range_scan_hits_total",
         "scans served by an ordered-index range probe",
         &ExecutionStats::range_hits},
        {"dl_morsels_total",
         "plan morsels dispatched to the work-stealing scheduler",
         &ExecutionStats::morsels},
        {"dl_steals_total",
         "scheduler work-steals observed during checked queries",
         &ExecutionStats::steals},
        {"dl_query_sched_tasks_total",
         "scheduler tasks attributed to checked queries",
         &ExecutionStats::sched_tasks},
        {"dl_plan_cache_hits_total",
         "policy statements evaluated from a cached physical plan",
         &ExecutionStats::plan_cache_hits},
        {"dl_incremental_hits_total",
         "policy verdicts served from incremental state",
         &ExecutionStats::incremental_hits},
        {"dl_incremental_fallbacks_total",
         "incremental states that declined and fell back to full eval",
         &ExecutionStats::incremental_fallbacks},
        {"dl_incremental_rebuilds_total",
         "incremental state rebuilds forced by dependency invalidation",
         &ExecutionStats::incremental_rebuilds},
    };
    struct HistogramOf {
      const char* name;
      const char* help;
      double PhaseTimes::*field;
    };
    static const HistogramOf kHistograms[] = {
        {"dl_query_exec_us", "user-query execution latency (us)",
         &PhaseTimes::user_exec_us},
        {"dl_log_gen_us", "usage-log generation latency (us)",
         &PhaseTimes::log_gen_us},
        {"dl_policy_eval_us", "policy-evaluation wall latency (us)",
         &PhaseTimes::policy_eval_us},
        {"dl_compaction_us", "log-compaction latency (us)",
         &PhaseTimes::compaction_us},
        {"dl_parse_us", "SQL parse latency (us)", &PhaseTimes::parse_us},
        {"dl_bind_us", "user-query bind latency (us)", &PhaseTimes::bind_us},
        {"dl_plan_us", "plan-cache rewarm latency (us)", &PhaseTimes::plan_us},
    };
    struct Handles {
      Counter* queries;
      Counter* rejected;
      Counter* probes;
      Histogram* total_us;
      Histogram* queue_wait_us;
      std::vector<Counter*> counters;      // kCounters, in order
      std::vector<Histogram*> histograms;  // kHistograms, in order
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
      handles.total_us = r.GetHistogram("dl_total_us",
                                        "end-to-end per-query latency (us)");
      handles.queue_wait_us = r.GetHistogram(
          "dl_query_queue_wait_us",
          "per-query summed scheduler submit-to-start latency (us)");
      for (const CounterOf& c : kCounters) {
        handles.counters.push_back(r.GetCounter(c.name, c.help));
      }
      for (const HistogramOf& c : kHistograms) {
        handles.histograms.push_back(r.GetHistogram(c.name, c.help));
      }
      return handles;
    }();
    (probe ? h.probes : h.queries)->Increment();
    if (!admitted) h.rejected->Increment();
    for (size_t i = 0; i < h.counters.size(); ++i) {
      h.counters[i]->Increment(stats_.*kCounters[i].field);
    }
    h.total_us->Observe(phases.total_us());
    for (size_t i = 0; i < h.histograms.size(); ++i) {
      h.histograms[i]->Observe(phases.*kHistograms[i].field);
    }
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
