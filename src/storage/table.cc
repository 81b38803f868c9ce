#include "storage/table.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace datalawyer {

namespace {

/// Strict weak order matching Value::Compare over a homogeneous column
/// class: int64 pairs compare exactly, mixed numerics widen to double,
/// strings compare lexicographically. Only called for values the index
/// already vetted as one class.
bool OrderedLess(const Value& a, const Value& b) {
  if (a.is_int64() && b.is_int64()) return a.AsInt64() < b.AsInt64();
  if (a.is_numeric() && b.is_numeric()) return a.ToDouble() < b.ToDouble();
  return a.AsString() < b.AsString();
}

/// Classifies a non-NULL value for ordered indexing: 1 = finite numeric,
/// 2 = string, 0 = not orderable (bool, non-finite double).
int OrderedClassOf(const Value& v) {
  if (v.is_numeric()) {
    return std::isfinite(v.ToDouble()) ? 1 : 0;
  }
  return v.is_string() ? 2 : 0;
}

bool EntryLess(const std::pair<Value, size_t>& a,
               const std::pair<Value, size_t>& b) {
  return OrderedLess(a.first, b.first);
}

/// Finite numerics carry a statistics range; any other non-NULL value in a
/// column drops it.
bool IsRanged(const Value& v) {
  return v.is_numeric() && std::isfinite(v.ToDouble());
}

/// Position-remap marker for a deleted row.
constexpr size_t kErased = std::numeric_limits<size_t>::max();

}  // namespace

size_t Table::LowerBoundRowId(int64_t id) const {
  auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), id);
  return size_t(it - row_ids_.begin());
}

Status Table::BuildIndex(const std::string& column) {
  auto col = schema_.FindColumn(column);
  if (!col.has_value()) {
    return Status::NotFound("no column " + column + " to index");
  }
  // Replace any previous index on this column.
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].column == *col) {
      indexes_.erase(indexes_.begin() + i);
      break;
    }
  }
  HashIndex index;
  index.column = *col;
  index.positions.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    index.positions[rows_[i][*col]].push_back(i);
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

Status Table::BuildOrderedIndex(const std::string& column) {
  auto col = schema_.FindColumn(column);
  if (!col.has_value()) {
    return Status::NotFound("no column " + column + " to index");
  }
  for (size_t i = 0; i < ordered_indexes_.size(); ++i) {
    if (ordered_indexes_[i].column == *col) {
      ordered_indexes_.erase(ordered_indexes_.begin() + i);
      break;
    }
  }
  OrderedIndex index;
  index.column = *col;
  RebuildOrderedIndex(&index);
  ordered_indexes_.push_back(std::move(index));
  return Status::OK();
}

bool Table::ClassifyOrdered(OrderedIndex* index, const Value& v) {
  if (v.is_null()) return true;
  int cls = OrderedClassOf(v);
  if (cls == 0 || (index->value_class != 0 && cls != index->value_class)) {
    index->usable = false;
    index->sorted.clear();
    return false;
  }
  index->value_class = cls;
  ++index->non_null;
  return true;
}

void Table::RebuildOrderedIndex(OrderedIndex* index) {
  index->sorted.clear();
  index->indexed_rows = rows_.size();
  index->usable = true;
  index->value_class = 0;
  index->non_null = 0;
  index->sorted.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Value& v = rows_[i][index->column];
    if (!ClassifyOrdered(index, v)) return;
    if (!v.is_null()) index->sorted.emplace_back(v, i);
  }
  std::sort(index->sorted.begin(), index->sorted.end(), EntryLess);
}

bool Table::HasValidOrderedIndex(size_t col) const {
  for (const OrderedIndex& index : ordered_indexes_) {
    if (index.column == col && index.usable) return true;
  }
  return false;
}

bool Table::RangeLookup(size_t col, const Value* lo, bool lo_inclusive,
                        const Value* hi, bool hi_inclusive,
                        std::vector<size_t>* out) const {
  const OrderedIndex* index = nullptr;
  for (const OrderedIndex& oi : ordered_indexes_) {
    if (oi.column == col) {
      index = &oi;
      break;
    }
  }
  if (index == nullptr || !index->usable) return false;
  if (lo == nullptr && hi == nullptr) return false;
  // SQL comparisons against NULL never hold: an index answer of "no rows"
  // is exact (the re-applied filter would reject every row anyway).
  if ((lo != nullptr && lo->is_null()) || (hi != nullptr && hi->is_null())) {
    out->clear();
    return true;
  }
  // A bound whose class differs from the column's would need Value::Compare
  // semantics the index cannot reproduce (TypeError); fall back to a scan
  // so errors surface exactly as the naive path raises them. Every value,
  // tail included, shares value_class (Append classifies it), so the
  // bounds are the only values left to vet.
  int cls_required = index->value_class;
  for (const Value* bound : {lo, hi}) {
    if (bound == nullptr) continue;
    int cls = OrderedClassOf(*bound);
    if (cls == 0 || (cls_required != 0 && cls != cls_required)) {
      return false;
    }
    cls_required = cls;
  }

  std::vector<size_t> hits;
  auto less_value = [](const std::pair<Value, size_t>& entry, const Value& v) {
    return OrderedLess(entry.first, v);
  };
  auto value_less = [](const Value& v, const std::pair<Value, size_t>& entry) {
    return OrderedLess(v, entry.first);
  };
  auto begin = index->sorted.begin();
  auto end = index->sorted.end();
  if (lo != nullptr) {
    begin = lo_inclusive
                ? std::lower_bound(begin, end, *lo, less_value)
                : std::upper_bound(begin, end, *lo, value_less);
  }
  if (hi != nullptr) {
    end = hi_inclusive ? std::upper_bound(begin, end, *hi, value_less)
                       : std::lower_bound(begin, end, *hi, less_value);
  }
  for (auto it = begin; it != end; ++it) hits.push_back(it->second);

  // Tail: rows appended since the last merge, scanned linearly.
  auto in_range = [&](const Value& v) {
    if (lo != nullptr) {
      if (OrderedLess(v, *lo)) return false;
      if (!lo_inclusive && !OrderedLess(*lo, v)) return false;
    }
    if (hi != nullptr) {
      if (OrderedLess(*hi, v)) return false;
      if (!hi_inclusive && !OrderedLess(v, *hi)) return false;
    }
    return true;
  };
  for (size_t i = index->indexed_rows; i < rows_.size(); ++i) {
    const Value& v = rows_[i][col];
    if (!v.is_null() && in_range(v)) hits.push_back(i);
  }
  std::sort(hits.begin(), hits.end());
  out->insert(out->end(), hits.begin(), hits.end());
  return true;
}

bool Table::HasValidIndex(size_t col) const {
  for (const HashIndex& index : indexes_) {
    if (index.column == col) return true;
  }
  return false;
}

bool Table::IndexLookup(size_t col, const Value& v,
                        std::vector<size_t>* out) const {
  for (const HashIndex& index : indexes_) {
    if (index.column == col) {
      auto it = index.positions.find(v);
      if (it != index.positions.end()) {
        out->insert(out->end(), it->second.begin(), it->second.end());
      }
      return true;
    }
  }
  return false;
}

Result<int64_t> Table::Append(Row row) {
  if (row.size() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema (" +
        std::to_string(schema_.NumColumns()) + " columns)");
  }
  int64_t id = next_row_id_++;
  size_t pos = rows_.size();
  rows_.push_back(std::move(row));
  row_ids_.push_back(id);
  for (HashIndex& index : indexes_) {
    index.positions[rows_[pos][index.column]].push_back(pos);
  }
  // Ordered indexes absorb appends into an implicit tail (rows past
  // indexed_rows, scanned linearly by RangeLookup); once the tail grows
  // past the threshold it is sorted and merged into the run — amortized
  // O(log n) per append, and probes stay O(log n + tail).
  for (OrderedIndex& index : ordered_indexes_) {
    if (!index.usable || !ClassifyOrdered(&index, rows_[pos][index.column])) {
      continue;
    }
    if (rows_.size() - index.indexed_rows < kOrderedTailMergeThreshold) {
      continue;
    }
    size_t run = index.sorted.size();
    for (size_t i = index.indexed_rows; i < rows_.size(); ++i) {
      const Value& v = rows_[i][index.column];
      if (!v.is_null()) index.sorted.emplace_back(v, i);
    }
    std::sort(index.sorted.begin() + run, index.sorted.end(), EntryLess);
    std::inplace_merge(index.sorted.begin(), index.sorted.begin() + run,
                       index.sorted.end(), EntryLess);
    index.indexed_rows = rows_.size();
  }
  if (stats_enabled_) FoldRowIntoStats(rows_[pos]);
  return id;
}

void Table::EnableStats() {
  stats_enabled_ = true;
  RebuildStats();
}

void Table::DisableStats() {
  stats_enabled_ = false;
  stats_ = TableStats{};
  stats_tally_.clear();
}

void Table::RebuildStats() {
  stats_ = TableStats{};
  stats_.valid = true;
  stats_.columns.resize(schema_.NumColumns());
  stats_tally_.assign(schema_.NumColumns(), ColumnTally{});
  for (const Row& row : rows_) FoldRowIntoStats(row);
}

void Table::FoldRowIntoStats(const Row& row) {
  ++stats_.row_count;
  for (size_t c = 0; c < stats_.columns.size() && c < row.size(); ++c) {
    const Value& v = row[c];
    if (v.is_null()) {
      ++stats_.columns[c].null_count;
      continue;
    }
    ColumnTally& t = stats_tally_[c];
    ++t.counts[v];
    if (IsRanged(v)) {
      double d = v.ToDouble();
      if (t.ranged++ == 0) {
        t.min = t.max = d;
      } else {
        t.min = std::min(t.min, d);
        t.max = std::max(t.max, d);
      }
    } else {
      ++t.unranged;
    }
    PublishColumnStats(c);
  }
}

void Table::UnfoldRowFromStats(const Row& row,
                               std::vector<bool>* stale_range) {
  --stats_.row_count;
  for (size_t c = 0; c < stats_.columns.size() && c < row.size(); ++c) {
    const Value& v = row[c];
    if (v.is_null()) {
      --stats_.columns[c].null_count;
      continue;
    }
    ColumnTally& t = stats_tally_[c];
    auto it = t.counts.find(v);
    bool last = --it->second == 0;
    if (last) t.counts.erase(it);
    if (!IsRanged(v)) {
      --t.unranged;
      continue;
    }
    --t.ranged;
    // Another copy of the value keeps the bound; only the last one of a
    // bound value forces a recompute.
    double d = v.ToDouble();
    if (last && (d == t.min || d == t.max)) (*stale_range)[c] = true;
  }
}

void Table::PublishColumnStats(size_t c) {
  const ColumnTally& t = stats_tally_[c];
  ColumnStats& cs = stats_.columns[c];
  cs.ndv = t.counts.size();
  cs.has_range = t.ranged > 0 && t.unranged == 0;
  cs.min = cs.has_range ? t.min : 0;
  cs.max = cs.has_range ? t.max : 0;
}

Status Table::AppendAll(std::vector<Row> rows) {
  for (Row& row : rows) {
    DL_RETURN_NOT_OK(Append(std::move(row)).status());
  }
  return Status::OK();
}

void Table::ErasePositions(const std::vector<size_t>& removed) {
  if (stats_enabled_) {
    std::vector<bool> stale_range(stats_tally_.size(), false);
    for (size_t p : removed) UnfoldRowFromStats(rows_[p], &stale_range);
    for (size_t c = 0; c < stats_tally_.size(); ++c) {
      ColumnTally& t = stats_tally_[c];
      if (stale_range[c] && t.ranged > 0) {
        bool first = true;
        for (const auto& entry : t.counts) {
          if (!IsRanged(entry.first)) continue;
          double d = entry.first.ToDouble();
          t.min = first ? d : std::min(t.min, d);
          t.max = first ? d : std::max(t.max, d);
          first = false;
        }
      }
      PublishColumnStats(c);
    }
  }

  // Old position -> new position; survivors keep their order.
  std::vector<size_t> remap(rows_.size());
  for (size_t i = 0, r = 0, next = 0; i < rows_.size(); ++i) {
    if (r < removed.size() && removed[r] == i) {
      remap[i] = kErased;
      ++r;
    } else {
      remap[i] = next++;
    }
  }
  for (HashIndex& index : indexes_) {
    for (auto it = index.positions.begin(); it != index.positions.end();) {
      std::vector<size_t>& positions = it->second;
      size_t out = 0;
      for (size_t p : positions) {
        if (remap[p] != kErased) positions[out++] = remap[p];
      }
      if (out == 0) {
        it = index.positions.erase(it);
      } else {
        positions.resize(out);
        ++it;
      }
    }
  }
  std::vector<OrderedIndex*> rebuild;
  for (OrderedIndex& index : ordered_indexes_) {
    // The deletion may have removed the values that made it unusable.
    if (!index.usable) {
      rebuild.push_back(&index);
      continue;
    }
    size_t out = 0;
    for (size_t i = 0; i < index.sorted.size(); ++i) {
      size_t p = remap[index.sorted[i].second];
      if (p == kErased) continue;
      if (out != i) index.sorted[out].first = std::move(index.sorted[i].first);
      index.sorted[out++].second = p;
    }
    index.sorted.resize(out);
    size_t removed_from_run = 0;
    for (size_t p : removed) {
      if (!rows_[p][index.column].is_null()) --index.non_null;
      if (p < index.indexed_rows) ++removed_from_run;
    }
    if (index.non_null == 0) index.value_class = 0;
    index.indexed_rows -= removed_from_run;
  }

  size_t out = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (remap[i] == kErased) continue;
    if (out != i) {
      rows_[out] = std::move(rows_[i]);
      row_ids_[out] = row_ids_[i];
    }
    ++out;
  }
  rows_.resize(out);
  row_ids_.resize(out);
  for (OrderedIndex* index : rebuild) RebuildOrderedIndex(index);
  ++version_;
}

size_t Table::EraseIds(const std::vector<int64_t>& ids) {
  std::vector<size_t> removed;
  for (int64_t id : ids) {
    size_t p = LowerBoundRowId(id);
    if (p < row_ids_.size() && row_ids_[p] == id &&
        (removed.empty() || removed.back() < p)) {
      removed.push_back(p);
    }
  }
  if (removed.empty()) return 0;
  retraction_.valid = true;
  retraction_.from_epoch = version_;
  retraction_.row_ids.clear();
  for (size_t p : removed) retraction_.row_ids.push_back(row_ids_[p]);
  ErasePositions(removed);
  return removed.size();
}

size_t Table::RemoveIds(const std::unordered_set<int64_t>& remove) {
  std::vector<size_t> removed;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (remove.count(row_ids_[i])) removed.push_back(i);
  }
  if (removed.empty()) return 0;
  retraction_ = Retraction{};
  ErasePositions(removed);
  return removed.size();
}

void Table::Clear() {
  rows_.clear();
  row_ids_.clear();
  for (HashIndex& index : indexes_) index.positions.clear();
  for (OrderedIndex& index : ordered_indexes_) RebuildOrderedIndex(&index);
  if (stats_enabled_) RebuildStats();
  retraction_ = Retraction{};
  ++version_;
}

}  // namespace datalawyer
