#include "plan/stats.h"

#include <algorithm>
#include <cmath>

namespace datalawyer {

namespace {

const ColumnStats* ColumnOf(const TableStats* stats, size_t col) {
  if (stats == nullptr || !stats->valid || col >= stats->columns.size()) {
    return nullptr;
  }
  return &stats->columns[col];
}

double ClampSelectivity(const TableStats* stats, double sel) {
  double floor = stats != nullptr && stats->row_count > 0
                     ? 1.0 / double(stats->row_count)
                     : 0.0;
  return std::min(1.0, std::max(floor, sel));
}

}  // namespace

double EstimateEqSelectivity(const TableStats* stats, size_t col) {
  const ColumnStats* cs = ColumnOf(stats, col);
  if (cs == nullptr || cs->ndv == 0) return kDefaultEqSelectivity;
  return ClampSelectivity(stats, 1.0 / double(cs->ndv));
}

double EstimateRangeSelectivity(const TableStats* stats, size_t col,
                                CompareOp op, const Value* bound) {
  const ColumnStats* cs = ColumnOf(stats, col);
  if (cs == nullptr || !cs->has_range || bound == nullptr ||
      !bound->is_numeric() || !std::isfinite(bound->ToDouble())) {
    return kDefaultRangeSelectivity;
  }
  double b = bound->ToDouble();
  double span = cs->max - cs->min;
  double sel;
  if (op == CompareOp::kLt || op == CompareOp::kLe) {
    if (b < cs->min) {
      sel = 0.0;
    } else if (b >= cs->max) {
      sel = 1.0;
    } else {
      sel = span > 0 ? (b - cs->min) / span : 1.0;
    }
  } else if (op == CompareOp::kGt || op == CompareOp::kGe) {
    if (b > cs->max) {
      sel = 0.0;
    } else if (b <= cs->min) {
      sel = 1.0;
    } else {
      sel = span > 0 ? (cs->max - b) / span : 1.0;
    }
  } else {
    return kDefaultRangeSelectivity;
  }
  return ClampSelectivity(stats, sel);
}

double EstimateColumnNdv(const TableStats* stats, size_t col,
                         double row_count) {
  const ColumnStats* cs = ColumnOf(stats, col);
  if (cs != nullptr && cs->ndv > 0) return double(cs->ndv);
  return std::max(1.0, std::min(row_count, 1.0 / kDefaultEqSelectivity));
}

}  // namespace datalawyer
