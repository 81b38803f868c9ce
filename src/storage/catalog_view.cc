#include "storage/catalog_view.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace datalawyer {

ConcatRelation::ConcatRelation(const RelationData* first,
                               const RelationData* second)
    : first_(first), second_(second) {
  const TableStats* base = first_->Stats();
  if (base == nullptr) return;
  stats_ = *base;
  has_stats_ = true;
  size_t m = second_->NumRows();
  stats_.row_count += m;
  for (size_t i = 0; i < m; ++i) {
    const Row& row = second_->RowAt(i);
    for (size_t c = 0; c < stats_.columns.size() && c < row.size(); ++c) {
      const Value& v = row[c];
      ColumnStats& cs = stats_.columns[c];
      if (v.is_null()) {
        ++cs.null_count;
        continue;
      }
      ++cs.ndv;  // over-approximation: may double-count a main-part value
      if (!v.is_numeric() || !std::isfinite(v.ToDouble())) {
        cs.has_range = false;
        continue;
      }
      if (!cs.has_range && cs.ndv == 1) {
        cs.has_range = true;
        cs.min = cs.max = v.ToDouble();
      } else if (cs.has_range) {
        cs.min = std::min(cs.min, v.ToDouble());
        cs.max = std::max(cs.max, v.ToDouble());
      }
    }
  }
}

bool ConcatRelation::RangeLookup(size_t col, const Value* lo,
                                 bool lo_inclusive, const Value* hi,
                                 bool hi_inclusive,
                                 std::vector<size_t>* out) const {
  std::vector<size_t> first_hits;
  if (!first_->RangeLookup(col, lo, lo_inclusive, hi, hi_inclusive,
                           &first_hits)) {
    return false;
  }
  size_t n = first_->NumRows();
  std::vector<size_t> second_hits;
  if (!second_->RangeLookup(col, lo, lo_inclusive, hi, hi_inclusive,
                            &second_hits)) {
    second_hits.clear();
    size_t m = second_->NumRows();
    for (size_t i = 0; i < m; ++i) {
      const Value& v = second_->RowAt(i)[col];
      bool in = true;
      if (lo != nullptr) {
        auto r = Value::Compare(
            v, lo_inclusive ? CompareOp::kGe : CompareOp::kGt, *lo);
        if (!r.ok()) return false;
        in = !r->is_null() && r->AsBool();
      }
      if (in && hi != nullptr) {
        auto r = Value::Compare(
            v, hi_inclusive ? CompareOp::kLe : CompareOp::kLt, *hi);
        if (!r.ok()) return false;
        in = !r->is_null() && r->AsBool();
      }
      if (in) second_hits.push_back(i);
    }
  }
  out->insert(out->end(), first_hits.begin(), first_hits.end());
  for (size_t i : second_hits) out->push_back(n + i);
  return true;
}

void SystemCatalog::Register(const std::string& name, Provider provider) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = ToLower(name);
  if (providers_.find(key) == providers_.end()) names_.push_back(key);
  providers_[key] = std::move(provider);
  snapshots_.erase(key);
}

void SystemCatalog::InvalidateSnapshots() {
  if (!dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(mu_);
  snapshots_.clear();
  dirty_.store(false, std::memory_order_release);
}

const RelationData* SystemCatalog::Find(const std::string& name) const {
  // Real tables shadow system relations, so an application schema that
  // happens to define a `dl_decisions` table keeps working unchanged.
  if (base_ != nullptr) {
    const RelationData* rel = base_->Find(name);
    if (rel != nullptr) return rel;
  }
  std::string key = ToLower(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto snap = snapshots_.find(key);
  if (snap != snapshots_.end()) return snap->second.get();
  auto prov = providers_.find(key);
  if (prov == providers_.end()) return nullptr;
  auto rel = prov->second();
  const RelationData* raw = rel.get();
  snapshots_[key] = std::move(rel);
  dirty_.store(true, std::memory_order_release);
  return raw;
}

void OverlayCatalog::Add(const std::string& name, const RelationData* rel) {
  overrides_[ToLower(name)] = rel;
}

const RelationData* OverlayCatalog::Find(const std::string& name) const {
  auto it = overrides_.find(ToLower(name));
  if (it != overrides_.end()) return it->second;
  return base_ != nullptr ? base_->Find(name) : nullptr;
}

}  // namespace datalawyer
