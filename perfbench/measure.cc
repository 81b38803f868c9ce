#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "common/strings.h"

namespace datalawyer {
namespace perfbench {

double ExactPercentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t n = samples.size();
  size_t rank = size_t(std::ceil(q * double(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t CountAbove(const std::vector<double>& samples, double value) {
  return size_t(std::count_if(samples.begin(), samples.end(),
                              [&](double s) { return s > value; }));
}

uint64_t OutcomeDigest(bool rejected, std::vector<std::string> messages,
                       const std::vector<Row>* rows) {
  std::string canonical = rejected ? "reject" : "admit";
  std::sort(messages.begin(), messages.end());
  for (const std::string& m : messages) {
    canonical += "\x1fm:";
    canonical += m;
  }
  if (rows != nullptr) {
    std::vector<std::string> rendered;
    rendered.reserve(rows->size());
    for (const Row& row : *rows) rendered.push_back(RowToString(row));
    std::sort(rendered.begin(), rendered.end());
    for (const std::string& r : rendered) {
      canonical += "\x1fr:";
      canonical += r;
    }
  }
  return Fnv1a64(canonical);
}

// Written by CalibrationUs so the optimizer cannot drop its work.
volatile int64_t calibration_sink = 0;

double CalibrationUs() {
  auto start = std::chrono::steady_clock::now();
  std::unordered_map<std::string, int64_t> counts;
  std::vector<std::string> keys;
  keys.reserve(2000);
  for (int64_t i = 0; i < 2000; ++i) {
    keys.push_back("calibration-key-" + std::to_string(i * 7919 % 10007));
    counts[keys.back()] += i;
  }
  std::sort(keys.begin(), keys.end());
  int64_t sum = 0;
  for (const std::string& k : keys) sum += counts[k];
  calibration_sink = sum;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<size_t> DigestMismatches(const std::vector<uint64_t>& run,
                                     const std::vector<uint64_t>& reference) {
  std::vector<size_t> out;
  size_t n = std::min(run.size(), reference.size());
  for (size_t i = 0; i < n; ++i) {
    if (run[i] != reference[i]) out.push_back(i);
  }
  return out;
}

}  // namespace perfbench
}  // namespace datalawyer
