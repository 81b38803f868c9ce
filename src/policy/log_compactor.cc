#include "policy/log_compactor.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "exec/executor.h"
#include "common/trace.h"

namespace datalawyer {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Result<std::map<std::string, std::set<int64_t>>> LogCompactor::Mark(
    const WitnessBodies& witnesses, const CatalogView* base, int64_t now,
    std::set<std::string>* keep_all, ScanStats* scans) {
  std::map<std::string, std::set<int64_t>> keep;
  for (const std::string& name : log_->RelationNamesInOrder()) {
    keep[name];  // default: retain nothing unless a witness asks for it
  }
  keep_all->insert(witnesses.keep_all.begin(), witnesses.keep_all.end());

  // Catalog for the witness queries: base + log(∪ increment) + dl_now.
  UsageLog::PolicyCatalog catalog = log_->MakeCatalog(base, now);
  AddNowRelation(&catalog, now);

  ExecOptions options;
  options.capture_lineage = true;
  for (const WitnessBody& body : witnesses.bodies) {
    QueryResult result;
    ScanStats body_scans;
    if (body.plan != nullptr) {
      PlanExecutor exec(catalog.view(), options);
      DL_ASSIGN_OR_RETURN(result, exec.Run(*body.plan));
      body_scans = exec.scan_stats();
    } else {
      Executor executor(catalog.view(), options);
      DL_ASSIGN_OR_RETURN(result, executor.Execute(*body.query));
      body_scans = executor.scan_stats();
    }
    if (scans != nullptr) {
      scans->index_probes += body_scans.index_probes;
      scans->index_hits += body_scans.index_hits;
    }
    // Lineage relation index -> the keep set it feeds, for every relation
    // this body marks.
    std::vector<std::set<int64_t>*> target(result.base_relations.size());
    for (size_t i = 0; i < result.base_relations.size(); ++i) {
      const std::string& rel = result.base_relations[i];
      if (!std::binary_search(body.relations.begin(), body.relations.end(),
                              rel)) {
        continue;
      }
      auto it = keep.find(rel);
      if (it == keep.end()) continue;
      target[i] = &it->second;
    }
    for (const LineageSet& lineage : result.lineage) {
      for (const LineageEntry& entry : lineage) {
        if (target[entry.rel] != nullptr) {
          target[entry.rel]->insert(entry.row_id);
        }
      }
    }
  }
  return keep;
}

Result<CompactionStats> LogCompactor::CompactAndFlush(
    const WitnessBodies& witnesses, const CatalogView* base, int64_t now) {
  CompactionStats stats;
  DL_TRACE_SPAN("compact.flush", "policy");

  // ---- mark ----
  auto t0 = std::chrono::steady_clock::now();
  std::set<std::string> keep_all;
  ScanStats scans;
  std::map<std::string, std::set<int64_t>> keep;
  {
    DL_TRACE_SPAN("compact.mark", "policy");
    DL_ASSIGN_OR_RETURN(keep, Mark(witnesses, base, now, &keep_all, &scans));
  }
  stats.mark_ms = MsSince(t0);
  stats.index_probes = scans.index_probes;
  stats.index_hits = scans.index_hits;

  // ---- delete (persisted log) ----
  t0 = std::chrono::steady_clock::now();
  {
    DL_TRACE_SPAN("compact.delete", "policy");
    for (const auto& [name, ids] : keep) {
      if (keep_all.count(name)) continue;
      Table* main = log_->main_table(name);
      std::unordered_set<int64_t> main_keep;
      for (int64_t id : ids) {
        if (!ConcatRelation::IsFromSecond(id)) main_keep.insert(id);
      }
      stats.rows_deleted += main->RetainOnly(main_keep);
    }
  }
  stats.delete_ms = MsSince(t0);

  // ---- insert (surviving increment rows) ----
  t0 = std::chrono::steady_clock::now();
  DL_TRACE_SPAN("compact.insert", "policy");
  for (const auto& [name, ids] : keep) {
    Table* main = log_->main_table(name);
    Table* delta = log_->delta_table(name);
    if (!log_->IsPersisted(name)) {
      stats.rows_dropped_from_delta += delta->NumRows();
      continue;
    }
    bool all = keep_all.count(name) > 0;
    std::unordered_set<int64_t> delta_keep;
    if (!all) {
      for (int64_t id : ids) {
        if (ConcatRelation::IsFromSecond(id)) {
          delta_keep.insert(ConcatRelation::SecondRowId(id));
        }
      }
    }
    for (size_t i = 0; i < delta->NumRows(); ++i) {
      if (all || delta_keep.count(delta->RowIdAt(i))) {
        // Schemas match by construction; Append cannot fail.
        (void)main->Append(delta->RowAt(i));
        ++stats.rows_inserted;
      } else {
        ++stats.rows_dropped_from_delta;
      }
    }
  }
  log_->DiscardStaged();  // clears deltas and per-query generation flags
  // The delete phase invalidated main-table indexes; restore them while the
  // compactor still owns the tables (no reader can be probing concurrently).
  log_->RefreshIndexes();
  stats.insert_ms = MsSince(t0);
  return stats;
}

}  // namespace datalawyer
