#ifndef DATALAWYER_PERFBENCH_MEASURE_H_
#define DATALAWYER_PERFBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"

namespace datalawyer {
namespace perfbench {

/// Exact nearest-rank percentile of raw samples: the smallest sample with
/// at least ceil(q * n) samples at or below it (q in (0, 1]). Returns 0 for
/// no samples.
double ExactPercentile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return ExactPercentile(std::move(samples), 0.5);
}

/// Number of samples strictly greater than `value`.
size_t CountAbove(const std::vector<double>& samples, double value);

/// Digest of one statement's observable outcome: the verdict, the sorted
/// violation messages, and the answer rows as a multiset (sorted rendered
/// rows). `rows` is null for statements without an answer (probes, writes,
/// rejections).
uint64_t OutcomeDigest(bool rejected, std::vector<std::string> messages,
                       const std::vector<Row>* rows);

/// Runs a fixed piece of CPU and allocator work that does not depend on the
/// program under test (building, sorting and probing a 2000-key string hash
/// map) and returns its wall time in microseconds. Timed next to the
/// statements, it measures how fast the host is at that moment.
double CalibrationUs();

/// Positions where the run's digests differ from the reference's, over
/// their common prefix.
std::vector<size_t> DigestMismatches(const std::vector<uint64_t>& run,
                                     const std::vector<uint64_t>& reference);

}  // namespace perfbench
}  // namespace datalawyer

#endif  // DATALAWYER_PERFBENCH_MEASURE_H_
