#include "log/usage_log.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "common/trace.h"
#include "storage/persistence.h"

namespace datalawyer {

const std::string& UsageLog::ClockRelationName() {
  static const std::string* kName = new std::string("clock");
  return *kName;
}

std::unique_ptr<UsageLog> UsageLog::WithStandardGenerators() {
  auto log = std::make_unique<UsageLog>();
  // Registration failures are impossible here (fresh log, distinct names).
  (void)log->RegisterGenerator(std::make_unique<UsersLogGenerator>());
  (void)log->RegisterGenerator(std::make_unique<SchemaLogGenerator>());
  (void)log->RegisterGenerator(std::make_unique<ProvenanceLogGenerator>());
  return log;
}

Status UsageLog::RegisterGenerator(std::unique_ptr<LogGenerator> generator) {
  std::string name = ToLower(generator->relation_name());
  if (name == ClockRelationName()) {
    return Status::InvalidArgument("'clock' is reserved");
  }
  if (relations_.count(name)) {
    return Status::AlreadyExists("log relation already registered: " + name);
  }
  LogRelation rel;
  rel.main = std::make_unique<Table>(generator->schema());
  rel.delta = std::make_unique<Table>(generator->schema());
  rel.generator = std::move(generator);
  relations_.emplace(std::move(name), std::move(rel));
  return Status::OK();
}

std::vector<std::string> UsageLog::RelationNamesInOrder() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : relations_) names.push_back(name);
  auto rank_of = [this](const std::string& name) {
    const LogRelation& rel = relations_.at(name);
    return std::isnan(rel.rank_override)
               ? double(rel.generator->cost_rank())
               : rel.rank_override;
  };
  std::sort(names.begin(), names.end(),
            [&](const std::string& a, const std::string& b) {
              double ra = rank_of(a), rb = rank_of(b);
              return ra != rb ? ra < rb : a < b;
            });
  return names;
}

void UsageLog::SetCostRank(const std::string& name, double rank) {
  LogRelation* rel = Find(name);
  if (rel != nullptr) rel->rank_override = rank;
}

bool UsageLog::IsLogRelation(const std::string& name) const {
  return relations_.count(ToLower(name)) > 0;
}

const LogGenerator* UsageLog::generator(const std::string& name) const {
  const LogRelation* rel = Find(name);
  return rel != nullptr ? rel->generator.get() : nullptr;
}

UsageLog::LogRelation* UsageLog::Find(const std::string& name) {
  auto it = relations_.find(ToLower(name));
  return it == relations_.end() ? nullptr : &it->second;
}

const UsageLog::LogRelation* UsageLog::Find(const std::string& name) const {
  auto it = relations_.find(ToLower(name));
  return it == relations_.end() ? nullptr : &it->second;
}

Result<size_t> UsageLog::EnsureGenerated(const std::string& name, int64_t ts,
                                         const GenerationInput& input) {
  LogRelation* rel = Find(name);
  if (rel == nullptr) return Status::NotFound("no such log relation: " + name);
  if (rel->generated) return size_t{0};
  ScopedSpan span(Tracer::Global().enabled() ? "log.generate:" + name
                                             : std::string(),
                  "log");
  DL_ASSIGN_OR_RETURN(std::vector<Row> features,
                      rel->generator->Generate(input));
  size_t count = features.size();
  for (Row& feature : features) {
    Row row;
    row.reserve(feature.size() + 1);
    row.push_back(Value(ts));
    for (Value& v : feature) row.push_back(std::move(v));
    DL_RETURN_NOT_OK(rel->delta->Append(std::move(row)).status());
  }
  rel->generated = true;
  return count;
}

bool UsageLog::IsGenerated(const std::string& name) const {
  const LogRelation* rel = Find(name);
  return rel != nullptr && rel->generated;
}

void UsageLog::SetPersisted(const std::string& name, bool persisted) {
  LogRelation* rel = Find(name);
  if (rel != nullptr) rel->persisted = persisted;
}

bool UsageLog::IsPersisted(const std::string& name) const {
  const LogRelation* rel = Find(name);
  return rel != nullptr && rel->persisted;
}

Table* UsageLog::main_table(const std::string& name) {
  LogRelation* rel = Find(name);
  return rel != nullptr ? rel->main.get() : nullptr;
}

Table* UsageLog::delta_table(const std::string& name) {
  LogRelation* rel = Find(name);
  return rel != nullptr ? rel->delta.get() : nullptr;
}

const Table* UsageLog::main_table(const std::string& name) const {
  const LogRelation* rel = Find(name);
  return rel != nullptr ? rel->main.get() : nullptr;
}

const Table* UsageLog::delta_table(const std::string& name) const {
  const LogRelation* rel = Find(name);
  return rel != nullptr ? rel->delta.get() : nullptr;
}

void UsageLog::SetIndexes(bool on) {
  indexes_enabled_ = on;
  for (auto& [name, rel] : relations_) {
    if (!on) rel.main->DropIndexes();
    const TableSchema& schema = rel.main->schema();
    for (size_t c = 0; on && c < schema.NumColumns(); ++c) {
      // Cannot fail: the column names come from the schema itself.
      (void)rel.main->BuildIndex(schema.column(c).name);
    }
  }
}

void UsageLog::SetOrderedIndexes(bool on) {
  ordered_indexes_enabled_ = on;
  for (auto& [name, rel] : relations_) {
    if (!on) rel.main->DropOrderedIndexes();
    const TableSchema& schema = rel.main->schema();
    for (size_t c = 0; on && c < schema.NumColumns(); ++c) {
      if (schema.column(c).name != "ts") continue;
      // Cannot fail: the column name comes from the schema itself.
      (void)rel.main->BuildOrderedIndex(schema.column(c).name);
    }
  }
}

void UsageLog::SetStats(bool on) {
  stats_enabled_ = on;
  for (auto& [name, rel] : relations_) {
    on ? rel.main->EnableStats() : rel.main->DisableStats();
  }
}

size_t UsageLog::CommitStaged() {
  size_t flushed = 0;
  for (auto& [name, rel] : relations_) {
    if (rel.persisted) {
      for (size_t i = 0; i < rel.delta->NumRows(); ++i) {
        // Append cannot fail: delta and main share a schema.
        (void)rel.main->Append(rel.delta->RowAt(i));
        ++flushed;
      }
    }
    rel.delta->Clear();
    rel.generated = false;
  }
  return flushed;
}

void UsageLog::DiscardStaged() {
  for (auto& [name, rel] : relations_) {
    rel.delta->Clear();
    rel.generated = false;
  }
}

Status UsageLog::SaveTo(const std::string& dir) const {
  for (const auto& [name, rel] : relations_) {
    DL_RETURN_NOT_OK(SaveTable(*rel.main, dir + "/log_" + name + ".dltab"));
  }
  return Status::OK();
}

Status UsageLog::LoadFrom(const std::string& dir) {
  for (auto& [name, rel] : relations_) {
    std::string path = dir + "/log_" + name + ".dltab";
    Status st = LoadTableInto(rel.main.get(), path);
    if (st.code() == StatusCode::kNotFound) continue;  // no snapshot: empty
    DL_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

UsageLog::PolicyCatalog UsageLog::MakeCatalog(const CatalogView* base,
                                              int64_t now) const {
  PolicyCatalog out;
  out.catalog = std::make_unique<OverlayCatalog>(base);
  for (const auto& [name, rel] : relations_) {
    auto view = std::make_unique<ConcatRelation>(rel.main.get(),
                                                 rel.delta.get());
    out.catalog->Add(name, view.get());
    out.owned.push_back(std::move(view));
  }
  TableSchema clock_schema;
  clock_schema.AddColumn("ts", ValueType::kInt64);
  auto clock = std::make_unique<OwnedRelation>(
      std::move(clock_schema), std::vector<Row>{{Value(now)}});
  out.catalog->Add(ClockRelationName(), clock.get());
  out.owned.push_back(std::move(clock));
  return out;
}

}  // namespace datalawyer
