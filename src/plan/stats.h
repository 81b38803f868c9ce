#ifndef DATALAWYER_PLAN_STATS_H_
#define DATALAWYER_PLAN_STATS_H_

#include <cstddef>
#include <string>

#include "common/value.h"
#include "storage/stats.h"

namespace datalawyer {

/// Selectivity and cardinality estimation over the storage layer's
/// TableStats (storage/stats.h). Every function degrades to a System-R
/// style magic constant when the statistics cannot answer, so estimates
/// are always defined — the cost model never needs a "no estimate" branch,
/// only the caller's decision of whether stats were trustworthy at all.

/// Magic fallbacks, in the System R tradition.
constexpr double kDefaultEqSelectivity = 0.1;
constexpr double kDefaultRangeSelectivity = 0.25;
constexpr double kDefaultNeqSelectivity = 0.9;

/// Selectivity of `col = <value>`: 1/NDV under the uniform-distribution
/// assumption, kDefaultEqSelectivity when stats are absent.
double EstimateEqSelectivity(const TableStats* stats, size_t col);

/// Selectivity of `col OP bound` for OP in {<, <=, >, >=}: the fraction of
/// the column's [min, max] range the predicate admits, clamped to
/// [1/row_count, 1]. Falls back to kDefaultRangeSelectivity when the
/// column has no numeric range, the bound is not numeric, or `bound` is
/// nullptr (bound unknown until run time).
double EstimateRangeSelectivity(const TableStats* stats, size_t col,
                                CompareOp op, const Value* bound);

/// NDV of `col` for join-cardinality estimation (|L ⋈ R| ≈ |L|·|R| /
/// max(ndv)). When stats are absent, assumes kDefaultEqSelectivity⁻¹
/// distinct values capped by `row_count`.
double EstimateColumnNdv(const TableStats* stats, size_t col,
                         double row_count);

}  // namespace datalawyer

#endif  // DATALAWYER_PLAN_STATS_H_
