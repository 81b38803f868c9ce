// Interactive DataLawyer shell: SQL at the prompt, policies and usage-log
// inspection via meta-commands. Reads stdin, so it also works scripted:
//
//   $ ./build/examples/datalawyer_shell            # starts with MIMIC data
//   dl> \policy p6 SELECT DISTINCT 'too hot' FROM ...
//   dl> \user 1
//   dl> SELECT * FROM d_patients WHERE subject_id = 186
//   dl> \log SELECT COUNT(*) FROM provenance
//   dl> \quit

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common/strings.h"
#include "core/datalawyer.h"
#include "storage/persistence.h"
#include "storage/stats.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"

using namespace datalawyer;

namespace {

void PrintHelp() {
  std::printf(R"(Commands:
  <sql>                   run a SQL statement through policy enforcement;
                          telemetry is queryable as ordinary relations:
                          dl_decisions, dl_policy_stats, dl_slow_log
  EXPLAIN <select>        logical plan of a SELECT (database only, no policies)
  EXPLAIN ANALYZE <select>  run it profiled: per-operator rows and wall us
  \policy <name> <sql>    register a policy (SQL over the usage log)
  \guard <name> <sql>     attach an approximate guard to policy <name>
  \check <sql>            dry run: would this query be admitted?
  \policies               active policies + per-policy enforcement attribution
  \policies plan <name>   physical plan the enforcement fan-out re-executes
  \policies analyze <name>  profiled evaluation of that plan (rows, wall us)
  \drop <name>            remove a policy
  \user <uid>             switch the current user (default 0)
  \log <sql>              read-only query over database + usage log + clock
  \explain <sql>          show the execution plan for a SELECT (database only)
  \plan <sql>             physical plan over database + usage log + clock
  \stats                  phase breakdown of the last query
  \stats <table>          per-column statistics (rows, NDV, nulls, min..max)
  \trace on|off|clear     toggle span tracing (Chrome trace_event collection)
  \trace <file>           write the collected trace as Chrome JSON to <file>
  \metrics                phase-latency summary + Prometheus text exposition
  \top                    1s/10s/60s windowed rollups: QPS, reject rate, p50/p95
  \workers                per-worker scheduler stats: tasks, steals, queue
                          latency, busy/idle split, queue depth + watermark
  \sched                  scheduler watchdog verdict + adaptive morsel sizing
  \why [n]                witness tuples + per-policy outcomes of the last
                          n (default 1) rejected queries
  \why <decision-id>      the same, for one decision by id (see \decisions)
  \decisions [n]          last n (default 10) decision records
  \decisions json         dump the decision store as JSON
  \audit [n]              last n (default 10) admit/reject decisions, audit view
  \slow [n]               last n (default 10) decisions at/above the threshold
  \slow json              dump those slow decisions as JSON
  \slow threshold <us>    set the slow threshold in microseconds (0 = off)
  \paper                  load the paper's six Table 2 policies
  \save <dir> / \load <dir>   snapshot / restore the database and usage log
  \help                   this text
  \quit                   exit
)");
}

/// The seven-phase breakdown shared by \stats, \why, and \slow.
std::string FormatPhases(const PhaseTimes& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "total %8.0fus | parse %.0f bind %.0f plan %.0f log-gen %.0f "
                "eval %.0f compact %.0f exec %.0f",
                p.total_us(), p.parse_us, p.bind_us, p.plan_us, p.log_gen_us,
                p.policy_eval_us, p.compaction_us, p.user_exec_us);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Database db;
  MimicConfig config;
  config.num_patients = 2000;
  config.num_chartevents = 30000;
  if (argc > 1) {
    if (!LoadDatabase(&db, argv[1]).ok()) {
      std::printf("could not load database from %s\n", argv[1]);
      return 1;
    }
    std::printf("loaded database from %s\n", argv[1]);
  } else if (!LoadMimicData(&db, config).ok()) {
    return 1;
  }

  DataLawyerOptions options;
  options.enable_metrics = true;  // \metrics; one histogram update per query
  // Morsel-parallel execution (results stay byte-identical to serial) so
  // \workers and \sched have a live scheduler to report on.
  options.exec_threads = 4;
  (void)options.ClampThreadCounts();
  DataLawyer dl(&db, UsageLog::WithStandardGenerators(),
                std::make_unique<ManualClock>(0, 10), options);
  QueryContext ctx;
  ctx.uid = 0;
  std::map<std::string, std::string> policy_sql;  // for \guard re-registration

  bool interactive = isatty(fileno(stdin));
  if (interactive) {
    std::printf("DataLawyer shell — \\help for commands\n");
  }

  std::string line;
  while (true) {
    if (interactive) {
      std::printf("dl[uid=%lld]> ", (long long)ctx.uid);
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;

    if (line[0] == '\\') {
      std::istringstream in(line.substr(1));
      std::string cmd;
      in >> cmd;
      std::string rest;
      std::getline(in, rest);
      while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);

      if (cmd == "quit" || cmd == "q") break;
      if (cmd == "help") {
        PrintHelp();
      } else if (cmd == "user") {
        ctx.uid = std::strtoll(rest.c_str(), nullptr, 10);
      } else if (cmd == "policy") {
        size_t space = rest.find(' ');
        if (space == std::string::npos) {
          std::printf("usage: \\policy <name> <sql>\n");
          continue;
        }
        std::string name = rest.substr(0, space);
        std::string sql = rest.substr(space + 1);
        Status st = dl.AddPolicy(name, sql);
        if (st.ok()) policy_sql[name] = sql;
        std::printf("%s\n", st.ok() ? "registered" : st.ToString().c_str());
      } else if (cmd == "guard") {
        size_t space = rest.find(' ');
        if (space == std::string::npos) {
          std::printf("usage: \guard <name> <sql>\n");
          continue;
        }
        std::string name = rest.substr(0, space);
        auto it = policy_sql.find(name);
        if (it == policy_sql.end()) {
          std::printf("register %s with \policy first\n", name.c_str());
          continue;
        }
        Status st = dl.RemovePolicy(name);
        if (st.ok()) {
          st = dl.AddPolicyWithGuard(name, it->second, rest.substr(space + 1));
        }
        std::printf("%s\n", st.ok() ? "guarded" : st.ToString().c_str());
      } else if (cmd == "check") {
        Status st = dl.WouldAllow(rest, ctx);
        if (st.ok()) {
          std::printf("would be ADMITTED\n");
        } else if (st.IsPolicyViolation()) {
          std::printf("would be REJECTED: %s\n", st.message().c_str());
        } else {
          std::printf("error: %s\n", st.ToString().c_str());
        }
      } else if (cmd == "drop") {
        Status st = dl.RemovePolicy(rest);
        if (st.ok()) policy_sql.erase(rest);
        std::printf("%s\n", st.ok() ? "removed" : st.ToString().c_str());
      } else if (cmd == "policies") {
        if (rest.rfind("plan ", 0) == 0) {
          auto plan = dl.ExplainPolicy(rest.substr(5));
          std::printf("%s", plan.ok()
                                ? plan->c_str()
                                : (plan.status().ToString() + "\n").c_str());
          continue;
        }
        if (rest.rfind("analyze ", 0) == 0) {
          auto profile = dl.ExplainAnalyzePolicy(rest.substr(8));
          std::printf("%s",
                      profile.ok()
                          ? profile->c_str()
                          : (profile.status().ToString() + "\n").c_str());
          continue;
        }
        if (!dl.Prepare().ok()) {
          std::printf("prepare failed\n");
          continue;
        }
        for (const Policy& p : dl.active_policies()) {
          std::printf("%-24s monotone=%d time-independent=%d logs={",
                      p.name.c_str(), p.monotone, p.time_independent);
          for (size_t i = 0; i < p.log_relations.size(); ++i) {
            std::printf("%s%s", i ? "," : "", p.log_relations[i].c_str());
          }
          std::printf("}\n");
        }
        std::printf("%-24s %10s %8s %8s %12s %10s %12s %10s %14s\n",
                    "attribution", "evals", "prunes", "rejects", "eval-us",
                    "avg-us", "incremental", "hits/fb", "partials/pruned");
        for (const PolicyStats& ps : dl.PolicyReport()) {
          std::string hits_fb = std::to_string(ps.incremental_hits) + "/" +
                                std::to_string(ps.incremental_fallbacks);
          std::string partials = std::to_string(ps.partials_run) + "/" +
                                 std::to_string(ps.partials_pruned);
          std::printf(
              "%-24s %10llu %8llu %8llu %12.0f %10.1f %12s %10s %14s\n",
              ps.name.c_str(), (unsigned long long)ps.evaluations,
              (unsigned long long)ps.prunes, (unsigned long long)ps.rejections,
              ps.eval_us,
              ps.evaluations ? ps.eval_us / double(ps.evaluations) : 0.0,
              ps.incremental_class.c_str(), hits_fb.c_str(), partials.c_str());
        }
      } else if (cmd == "trace") {
        if (rest == "on") {
          Tracer::Global().Clear();
          Tracer::Global().set_enabled(true);
          std::printf("tracing on\n");
        } else if (rest == "off") {
          Tracer::Global().set_enabled(false);
          std::printf("tracing off (%zu spans held)\n",
                      Tracer::Global().size());
        } else if (rest == "clear") {
          Tracer::Global().Clear();
          std::printf("trace cleared\n");
        } else if (rest.empty()) {
          std::printf("tracing %s, %zu spans (usage: \\trace on|off|clear|"
                      "<file>)\n",
                      Tracer::Global().enabled() ? "on" : "off",
                      Tracer::Global().size());
        } else {
          Status st = Tracer::Global().WriteChromeJson(rest);
          if (st.ok()) {
            std::printf("wrote %zu spans to %s (open in about:tracing or "
                        "ui.perfetto.dev)\n",
                        Tracer::Global().size(), rest.c_str());
          } else {
            std::printf("%s\n", st.ToString().c_str());
          }
        }
      } else if (cmd == "metrics") {
        std::printf("%s", MetricsRegistry::Global().SummaryText().c_str());
        std::string expo = MetricsRegistry::Global().ExposeText();
        RollupRegistry::Global().AppendExposition(&expo);
        if (dl.scheduler() != nullptr) {
          dl.scheduler()->AppendExposition(&expo);
        }
        std::printf("%s", expo.c_str());
      } else if (cmd == "top") {
        std::printf("%s", RollupRegistry::Global().SummaryText().c_str());
      } else if (cmd == "workers") {
        const TaskScheduler* sched = dl.scheduler();
        if (sched == nullptr) {
          std::printf("scheduler not started (exec_threads=%zu; runs after "
                      "the first checked query)\n",
                      dl.options().exec_threads);
          continue;
        }
        SchedulerSnapshot snap = sched->Snapshot();
        std::printf("%zu workers, telemetry %s\n", snap.workers.size(),
                    sched->telemetry_enabled() ? "on" : "off");
        std::printf("%-8s %10s %8s %8s %12s %12s %12s %6s %6s\n", "worker",
                    "executed", "stolen", "given", "qwait-us", "busy-us",
                    "idle-us", "depth", "hwm");
        for (const WorkerSnapshot& w : snap.workers) {
          std::printf("%-8zu %10llu %8llu %8llu %12llu %12llu %12llu %6llu "
                      "%6llu\n",
                      w.index, (unsigned long long)w.executed,
                      (unsigned long long)w.steals_taken,
                      (unsigned long long)w.steals_given,
                      (unsigned long long)w.queue_wait_us,
                      (unsigned long long)w.busy_us,
                      (unsigned long long)w.idle_us,
                      (unsigned long long)w.queue_depth,
                      (unsigned long long)w.queue_depth_hwm);
        }
        std::printf("%-8s %10llu %8llu %8s %12llu %12llu %12llu %6llu\n",
                    "total", (unsigned long long)snap.executed,
                    (unsigned long long)snap.steals, "",
                    (unsigned long long)snap.queue_wait_us,
                    (unsigned long long)snap.busy_us,
                    (unsigned long long)snap.idle_us,
                    (unsigned long long)snap.queued);
      } else if (cmd == "sched") {
        const TaskScheduler* sched = dl.scheduler();
        if (sched == nullptr) {
          std::printf("scheduler not started (exec_threads=%zu; runs after "
                      "the first checked query)\n",
                      dl.options().exec_threads);
        } else {
          SchedulerSnapshot snap = sched->Snapshot();
          std::printf("executed %llu | steals %llu | queued %llu (oldest "
                      "%lluus) | imbalance %.2f\n",
                      (unsigned long long)snap.executed,
                      (unsigned long long)snap.steals,
                      (unsigned long long)snap.queued,
                      (unsigned long long)snap.oldest_queued_age_us,
                      snap.imbalance);
          std::printf("watchdog: %llu starvation, %llu imbalance warnings\n",
                      (unsigned long long)snap.starvation_warnings,
                      (unsigned long long)snap.imbalance_warnings);
          for (const std::string& w : snap.warnings) {
            std::printf("  WARNING %s\n", w.c_str());
          }
        }
        std::printf("adaptive morsel sizing: %s\n",
                    dl.adaptive_morsel_enabled() ? "on" : "off");
        std::printf("%s", dl.morsel_feedback().Summary().c_str());
      } else if (cmd == "why") {
        const DecisionStore& decisions = dl.decision_store();
        if (!decisions.enabled()) {
          std::printf("decision store disabled\n");
          continue;
        }
        auto print_decision = [](const DecisionRecord& d) {
          std::printf("#%llu ts=%lld uid=%lld %s%s  %s\n",
                      (unsigned long long)d.id, (long long)d.ts,
                      (long long)d.uid,
                      d.admitted ? "ADMIT " : "REJECT", d.probe ? "?" : " ",
                      d.query_sql.c_str());
          if (!d.policy.empty()) {
            std::printf("  policy: %s\n", d.policy.c_str());
          }
          for (const std::string& m : d.messages) {
            std::printf("  message: %s\n", m.c_str());
          }
          for (const PolicyOutcome& o : d.outcomes) {
            std::printf("  %-24s %-9s evals=%llu prunes=%llu %.0fus\n",
                        o.policy.c_str(), o.outcome.c_str(),
                        (unsigned long long)o.evaluations,
                        (unsigned long long)o.prunes, o.eval_us);
          }
          for (const DecisionWitness& w : d.witnesses) {
            std::string values;
            for (size_t i = 0; i < w.values.size(); ++i) {
              if (i) values += ", ";
              values += w.values[i];
            }
            std::printf("  witness %s%s row=%lld ts=%lld  (%s)\n",
                        w.relation.c_str(), w.from_increment ? "+" : "",
                        (long long)w.row_id, (long long)w.ts, values.c_str());
          }
          if (d.witnesses_truncated > 0) {
            std::printf("  (+%llu more witness rows, truncated)\n",
                        (unsigned long long)d.witnesses_truncated);
          }
          std::printf("  %s | plan-cache %zu/%zu\n",
                      FormatPhases(d.phases).c_str(), d.plan_cache_hits,
                      d.plan_cache_hits + d.plan_cache_misses);
        };
        // \why <arg>: a decision id if one matches, otherwise a count of
        // recent rejections (ids grow without bound, counts stay small, so
        // a collision picks the id — the more specific reading).
        uint64_t arg = rest.empty() ? 0 : std::strtoull(rest.c_str(), nullptr, 10);
        const DecisionRecord* byid = arg > 0 ? decisions.FindById(arg) : nullptr;
        if (byid != nullptr) {
          print_decision(*byid);
          continue;
        }
        size_t want = arg > 0 ? size_t(arg) : 1;
        std::vector<const DecisionRecord*> rejected;
        const auto& records = decisions.records();
        for (auto it = records.rbegin();
             it != records.rend() && rejected.size() < want; ++it) {
          if (!it->admitted) rejected.push_back(&*it);
        }
        if (rejected.empty()) {
          std::printf("no rejected queries recorded\n");
          continue;
        }
        for (auto it = rejected.rbegin(); it != rejected.rend(); ++it) {
          print_decision(**it);
        }
      } else if (cmd == "decisions") {
        if (rest == "json") {
          std::printf("%s\n", dl.decision_store().ToJson().c_str());
        } else {
          size_t n =
              rest.empty() ? 10 : std::strtoull(rest.c_str(), nullptr, 10);
          const DecisionStore& decisions = dl.decision_store();
          if (decisions.dropped() > 0) {
            std::printf("(%llu older decisions evicted)\n",
                        (unsigned long long)decisions.dropped());
          }
          for (const DecisionRecord& d : decisions.Tail(n)) {
            std::printf("#%-6llu ts=%-8lld uid=%-4lld %s%s %8.0fus  %s%s%s\n",
                        (unsigned long long)d.id, (long long)d.ts,
                        (long long)d.uid,
                        d.admitted ? "ADMIT " : "REJECT", d.probe ? "?" : " ",
                        d.total_us(), d.query_sql.c_str(),
                        d.policy.empty() ? "" : "  [",
                        d.policy.empty() ? "" : (d.policy + "]").c_str());
          }
        }
      } else if (cmd == "slow") {
        // The slow log is a view: the recorded decisions whose total met
        // the threshold (none while it is 0).
        double threshold = dl.options().slow_enforcement_threshold_us;
        if (rest == "json") {
          std::string json =
              threshold > 0 ? dl.decision_store().ToJson(threshold) : "[]";
          std::printf("%s\n", json.c_str());
        } else if (rest.rfind("threshold ", 0) == 0) {
          DataLawyerOptions opts = dl.options();
          opts.slow_enforcement_threshold_us =
              std::strtod(rest.c_str() + 10, nullptr);
          dl.set_options(opts);
          std::printf("slow threshold = %.0fus\n",
                      opts.slow_enforcement_threshold_us);
        } else if (threshold <= 0) {
          std::printf("slow log disabled (\\slow threshold <us> to arm)\n");
        } else {
          size_t n =
              rest.empty() ? 10 : std::strtoull(rest.c_str(), nullptr, 10);
          std::vector<const DecisionRecord*> slow;
          const auto& records = dl.decision_store().records();
          for (auto it = records.rbegin();
               it != records.rend() && slow.size() < n; ++it) {
            if (it->total_us() >= threshold) slow.push_back(&*it);
          }
          for (auto it = slow.rbegin(); it != slow.rend(); ++it) {
            const DecisionRecord& d = **it;
            std::printf("ts=%-8lld uid=%-4lld %s%s %s | %s\n", (long long)d.ts,
                        (long long)d.uid, d.admitted ? "ADMIT " : "REJECT",
                        d.probe ? "?" : " ", FormatPhases(d.phases).c_str(),
                        d.query_sql.c_str());
          }
        }
      } else if (cmd == "audit") {
        size_t n = rest.empty() ? 10 : std::strtoull(rest.c_str(), nullptr, 10);
        const DecisionStore& audit = dl.decision_store();
        if (audit.dropped() > 0) {
          std::printf("(%llu older records evicted)\n",
                      (unsigned long long)audit.dropped());
        }
        for (const DecisionRecord& d : audit.Tail(n)) {
          std::string policies = Join(d.ViolatedPolicies(), ",");
          std::printf("#%-6llu ts=%-8lld uid=%-4lld %s%s %8.0fus  %s%s%s\n",
                      (unsigned long long)d.id, (long long)d.ts,
                      (long long)d.uid, d.admitted ? "ADMIT " : "REJECT",
                      d.probe ? "?" : " ", d.total_us(), d.query_sql.c_str(),
                      policies.empty() ? "" : "  [",
                      policies.empty() ? "" : (policies + "]").c_str());
        }
      } else if (cmd == "explain") {
        auto plan = dl.engine()->ExplainSql(rest);
        std::printf("%s", plan.ok() ? plan->c_str()
                                    : (plan.status().ToString() + "\n").c_str());
      } else if (cmd == "plan") {
        auto plan = dl.ExplainLogQuery(rest);
        std::printf("%s", plan.ok() ? plan->c_str()
                                    : (plan.status().ToString() + "\n").c_str());
      } else if (cmd == "log") {
        auto result = dl.QueryUsageLog(rest);
        std::printf("%s\n", result.ok() ? result->ToString().c_str()
                                        : result.status().ToString().c_str());
      } else if (cmd == "stats" && !rest.empty()) {
        // \stats <table>: per-column statistics of a database table or a
        // usage-log main relation (row count, NDVs, null counts, min..max).
        const Table* table = db.FindTable(rest);
        if (table == nullptr) table = dl.usage_log()->main_table(rest);
        if (table == nullptr) {
          std::printf("no such table or log relation: %s\n", rest.c_str());
          continue;
        }
        TableStats stats = ComputeTableStats(*table);
        std::printf("%s", RenderTableStats(rest, table->schema(),
                                           stats).c_str());
      } else if (cmd == "stats") {
        const ExecutionStats& s = dl.last_stats();
        std::printf("%s | policies evaluated %zu, pruned %zu\n",
                    FormatPhases(s.phases()).c_str(), s.policies_evaluated,
                    s.policies_pruned_early);
        std::printf("policy wall %.0fus, cpu %.0fus | index probes %zu,"
                    " hits %zu | range probes %zu, hits %zu\n",
                    s.policy_wall_us, s.policy_cpu_us, s.index_probes,
                    s.index_hits, s.range_probes, s.range_hits);
      } else if (cmd == "paper") {
        for (const auto& [name, sql] : PaperPolicies::All()) {
          Status st = dl.AddPolicy(name, sql);
          if (!st.ok()) std::printf("%s: %s\n", name.c_str(),
                                    st.ToString().c_str());
        }
        std::printf("Table 2 policies loaded\n");
      } else if (cmd == "save") {
        Status st = SaveDatabase(db, rest);
        if (st.ok()) st = dl.usage_log()->SaveTo(rest);
        std::printf("%s\n", st.ok() ? "saved" : st.ToString().c_str());
      } else if (cmd == "load") {
        std::printf("restart the shell with the directory as argv[1]\n");
      } else {
        std::printf("unknown command \\%s (try \\help)\n", cmd.c_str());
      }
      continue;
    }

    auto result = dl.Execute(line, ctx);
    if (result.ok()) {
      std::printf("%s\n", result->ToString().c_str());
    } else if (result.status().IsPolicyViolation()) {
      std::printf("REJECTED: %s\n", result.status().message().c_str());
      for (const ViolationReport& report : dl.last_violations()) {
        std::printf("  policy %s\n", report.policy_name.c_str());
      }
    } else {
      std::printf("error: %s\n", result.status().ToString().c_str());
    }
  }
  return 0;
}
