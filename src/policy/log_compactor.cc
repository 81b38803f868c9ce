#include "policy/log_compactor.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/strings.h"
#include "common/trace.h"
#include "exec/executor.h"
#include "exec/plan_executor.h"

namespace datalawyer {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The rows of a main table from position `start` on: the ones no
/// compaction has stamped yet. Index probes answer only for the whole
/// table; a tail is scanned.
class TailRelation : public RelationData {
 public:
  TailRelation(const Table* table, size_t start)
      : table_(table), start_(start) {}

  const TableSchema& schema() const override { return table_->schema(); }
  size_t NumRows() const override { return table_->NumRows() - start_; }
  const Row& RowAt(size_t i) const override {
    return table_->RowAt(start_ + i);
  }
  int64_t RowIdAt(size_t i) const override {
    return table_->RowIdAt(start_ + i);
  }
  bool IndexLookup(size_t col, const Value& v,
                   std::vector<size_t>* out) const override {
    return start_ == 0 && table_->IndexLookup(col, v, out);
  }
  bool RangeLookup(size_t col, const Value* lo, bool lo_inclusive,
                   const Value* hi, bool hi_inclusive,
                   std::vector<size_t>* out) const override {
    return start_ == 0 &&
           table_->RangeLookup(col, lo, lo_inclusive, hi, hi_inclusive, out);
  }

 private:
  const Table* table_;
  size_t start_;
};

}  // namespace

int64_t LogCompactor::Stamp::bound() const {
  int64_t out = fixed;
  for (int64_t b : held) out = std::max(out, b);
  return out;
}

void LogCompactor::Reset() {
  relations_.clear();
  claims_.clear();
  narrowed_.clear();
}

Status LogCompactor::Narrow(const WitnessBody& body, const CatalogView* base,
                            Narrowed* out) const {
  out->tables.clear();
  std::vector<ExprPtr> conjuncts;
  if (body.query->where != nullptr) {
    conjuncts = SplitConjuncts(*body.query->where);
  }
  for (const TableRef& ref : body.query->from) {
    if (ref.IsSubquery() || log_->IsLogRelation(ref.table_name)) continue;
    // The catalog narrows by name: a table read twice stays whole.
    if (std::count_if(body.query->from.begin(), body.query->from.end(),
                      [&](const TableRef& other) {
                        return EqualsIgnoreCase(other.table_name,
                                                ref.table_name);
                      }) > 1) {
      continue;
    }
    const std::string alias = ref.BindingName();
    std::vector<ExprPtr> own;
    for (const ExprPtr& conj : conjuncts) {
      bool alone = true;
      conj->Visit([&](const Expr& e) {
        if (e.kind() == ExprKind::kColumnRef &&
            !EqualsIgnoreCase(static_cast<const ColumnRefExpr&>(e).qualifier,
                              alias)) {
          alone = false;
        }
      });
      if (alone) own.push_back(conj->Clone());
    }
    const RelationData* table = base->Find(ref.table_name);
    if (own.empty() || table == nullptr) continue;
    SelectStmt filter;
    filter.items.push_back(SelectItem{std::make_unique<StarExpr>(alias), ""});
    filter.from.push_back(ref.Clone());
    filter.where = AndTogether(std::move(own));
    Executor executor(base);
    DL_ASSIGN_OR_RETURN(QueryResult rows, executor.Execute(filter));
    out->tables.push_back(
        {ref.table_name, std::make_unique<OwnedRelation>(
                             table->schema(), std::move(rows.rows))});
  }
  out->built = true;
  return Status::OK();
}

int64_t LogCompactor::ToBound(const Value& rhs, bool inclusive) {
  if (rhs.is_null()) return kNoClaim;
  if (!rhs.is_int64()) return kNever;
  int64_t r = rhs.AsInt64();
  return inclusive && r < kNever ? r + 1 : r;
}

void LogCompactor::Withdraw(const Claim& claim) {
  for (const auto& [rel, id] : claim.rows) {
    auto it = rel->rows.find(id);
    if (it == rel->rows.end()) continue;  // deleted since
    Stamp& stamp = it->second;
    auto held = std::find(stamp.held.begin(), stamp.held.end(), claim.bound);
    if (held == stamp.held.end()) continue;
    int64_t before = stamp.bound();
    stamp.held.erase(held);
    int64_t after = stamp.bound();
    if (after != before) {
      rel->expiry.erase({before, id});
      rel->expiry.insert({after, id});
    }
  }
}

void LogCompactor::StampRows(const WitnessBody& body, const QueryResult& result,
                             const std::set<std::string>& keep_all,
                             int64_t now, Claims* claims,
                             std::vector<Claim*>* made) {
  // Lineage relation index -> its stamps and the members marking it.
  const size_t n = result.base_relations.size();
  std::vector<RelationStamps*> target(n, nullptr);
  std::vector<std::vector<size_t>> markers(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string& rel = result.base_relations[i];
    auto it = relations_.find(rel);
    if (it == relations_.end() || keep_all.count(rel)) continue;
    for (size_t m = 0; m < body.members.size(); ++m) {
      const std::vector<std::string>& rels = body.members[m].relations;
      if (std::binary_search(rels.begin(), rels.end(), rel)) {
        markers[i].push_back(m);
      }
    }
    if (!markers[i].empty()) target[i] = &it->second;
  }

  std::vector<int64_t> member_bound(body.members.size());
  // DISTINCT ON: per key, the output row with the latest bound (the first
  // of equals).
  std::map<Row, std::pair<int64_t, size_t>> best;
  for (size_t j = 0; j < result.rows.size(); ++j) {
    const Row& row = result.rows[j];
    for (size_t m = 0; m < body.members.size(); ++m) {
      int64_t bound = kNever;
      for (const WitnessBody::Bound& b : body.members[m].bounds) {
        bound = std::min(bound, ToBound(row[b.column], b.inclusive));
      }
      member_bound[m] = bound;
    }
    if (body.key_columns > 0) {
      if (member_bound[0] <= now + 1) continue;
      Row key(row.end() - body.key_columns, row.end());
      auto [it, fresh] = best.try_emplace(std::move(key), member_bound[0], j);
      if (!fresh && it->second.first < member_bound[0]) {
        it->second = {member_bound[0], j};
      }
      continue;
    }
    for (const LineageEntry& entry : result.lineage[j]) {
      if (target[entry.rel] == nullptr) continue;
      int64_t bound = kNoClaim;
      for (size_t m : markers[entry.rel]) {
        bound = std::max(bound, member_bound[m]);
      }
      if (bound <= now + 1) continue;
      Stamp& stamp = target[entry.rel]->fresh[entry.row_id];
      stamp.fixed = std::max(stamp.fixed, bound);
    }
  }

  for (auto& [key, kept] : best) {
    const auto [bound, j] = kept;
    auto [it, fresh] = claims->by_key.try_emplace(key);
    Claim& claim = it->second;
    if (!fresh) {
      if (claim.bound >= bound) continue;
      Withdraw(claim);
      claims->expiry.erase({claim.bound, &it->first});
    }
    claim.bound = bound;
    claim.rows.clear();
    for (const LineageEntry& entry : result.lineage[j]) {
      if (target[entry.rel] == nullptr) continue;
      claim.rows.push_back({target[entry.rel], entry.row_id});
      target[entry.rel]->fresh[entry.row_id].held.push_back(bound);
    }
    claims->expiry.insert({bound, &it->first});
    made->push_back(&claim);
  }
}

Result<CompactionStats> LogCompactor::CompactAndFlush(
    const WitnessBodies& witnesses, const CatalogView* base, int64_t now) {
  CompactionStats stats;
  DL_TRACE_SPAN("compact.flush", "policy");
  const std::vector<std::string> names = log_->RelationNamesInOrder();

  // ---- mark: stamp the unstamped rows, find the expired ones ----
  auto t0 = std::chrono::steady_clock::now();
  std::map<std::string, std::vector<int64_t>> doomed;
  std::vector<Claim*> made;
  {
    DL_TRACE_SPAN("compact.mark", "policy");
    // The bodies' catalog: the database, and each log relation's unstamped
    // main rows followed by the increment.
    OverlayCatalog catalog(base);
    std::vector<std::unique_ptr<RelationData>> owned;
    for (const std::string& name : names) {
      const Table* main = log_->main_table(name);
      auto tail = std::make_unique<TailRelation>(
          main, main->LowerBoundRowId(relations_[name].stamped_below));
      auto view =
          std::make_unique<ConcatRelation>(tail.get(), log_->delta_table(name));
      catalog.Add(name, view.get());
      owned.push_back(std::move(tail));
      owned.push_back(std::move(view));
    }
    // Every body runs before any stamp changes, so an error leaves the
    // compactor and the log as they were.
    ExecOptions options;
    options.capture_lineage = true;
    std::vector<QueryResult> results;
    narrowed_.resize(witnesses.bodies.size());
    for (size_t b = 0; b < witnesses.bodies.size(); ++b) {
      const WitnessBody& body = witnesses.bodies[b];
      DL_ASSIGN_OR_RETURN(const PhysicalPlan* plan, body.plan);
      if (!narrowed_[b].built) {
        DL_RETURN_NOT_OK(Narrow(body, base, &narrowed_[b]));
      }
      OverlayCatalog narrowed(&catalog);
      for (const auto& [name, table] : narrowed_[b].tables) {
        narrowed.Add(name, table.get());
      }
      PlanExecutor exec(&narrowed, options);
      DL_ASSIGN_OR_RETURN(QueryResult result, exec.Run(*plan));
      stats.index_probes += exec.scan_stats().index_probes;
      stats.index_hits += exec.scan_stats().index_hits;
      results.push_back(std::move(result));
    }
    claims_.resize(witnesses.bodies.size());
    for (size_t b = 0; b < results.size(); ++b) {
      StampRows(witnesses.bodies[b], results[b], witnesses.keep_all, now,
                &claims_[b], &made);
    }
    // Claims past their bound keep nothing; their rows expire with them
    // unless something else holds them.
    for (Claims& claims : claims_) {
      while (!claims.expiry.empty() &&
             claims.expiry.begin()->first <= now + 1) {
        claims.by_key.erase(*claims.expiry.begin()->second);
        claims.expiry.erase(claims.expiry.begin());
      }
    }
    for (const std::string& name : names) {
      if (witnesses.keep_all.count(name)) continue;
      RelationStamps& rel = relations_[name];
      std::vector<int64_t>& ids = doomed[name];
      const Table* main = log_->main_table(name);
      for (size_t p = main->LowerBoundRowId(rel.stamped_below);
           p < main->NumRows(); ++p) {
        int64_t id = main->RowIdAt(p);
        auto it = rel.fresh.find(id);
        if (it == rel.fresh.end()) {
          ids.push_back(id);
          continue;
        }
        rel.expiry.insert({it->second.bound(), id});
        rel.rows[id] = std::move(it->second);
      }
      while (!rel.expiry.empty() && rel.expiry.begin()->first <= now + 1) {
        int64_t id = rel.expiry.begin()->second;
        ids.push_back(id);
        rel.rows.erase(id);
        rel.expiry.erase(rel.expiry.begin());
      }
      std::sort(ids.begin(), ids.end());
    }
  }
  stats.mark_ms = MsSince(t0);

  // ---- delete (persisted log) ----
  t0 = std::chrono::steady_clock::now();
  {
    DL_TRACE_SPAN("compact.delete", "policy");
    for (const auto& [name, ids] : doomed) {
      if (!ids.empty()) {
        stats.rows_deleted += log_->main_table(name)->EraseIds(ids);
      }
    }
  }
  stats.delete_ms = MsSince(t0);

  // ---- insert (surviving increment rows) ----
  t0 = std::chrono::steady_clock::now();
  DL_TRACE_SPAN("compact.insert", "policy");
  for (const std::string& name : names) {
    Table* main = log_->main_table(name);
    const Table* delta = log_->delta_table(name);
    RelationStamps& rel = relations_[name];
    const bool all = witnesses.keep_all.count(name) > 0;
    if (!log_->IsPersisted(name)) {
      stats.rows_dropped_from_delta += delta->NumRows();
    } else {
      for (size_t i = 0; i < delta->NumRows(); ++i) {
        auto it = all ? rel.fresh.end()
                      : rel.fresh.find(delta->RowIdAt(i) +
                                       ConcatRelation::kSecondBase);
        if (!all && it == rel.fresh.end()) {
          ++stats.rows_dropped_from_delta;
          continue;
        }
        // Schemas match by construction; Append cannot fail.
        int64_t id = *main->Append(delta->RowAt(i));
        ++stats.rows_inserted;
        if (all) continue;
        rel.moved[it->first] = id;
        rel.expiry.insert({it->second.bound(), id});
        rel.rows[id] = std::move(it->second);
      }
    }
    rel.stamped_below = main->next_row_id();
  }
  // The claims made this compaction name their increment rows by catalog
  // id; they live in the main table now.
  for (Claim* claim : made) {
    for (auto& [rel, id] : claim->rows) {
      if (!ConcatRelation::IsFromSecond(id)) continue;
      auto it = rel->moved.find(id);
      id = it != rel->moved.end() ? it->second : -1;
    }
  }
  for (auto& [name, rel] : relations_) {
    rel.fresh.clear();
    rel.moved.clear();
  }
  log_->DiscardStaged();  // clears deltas and per-query generation flags
  stats.insert_ms = MsSince(t0);
  return stats;
}

}  // namespace datalawyer
