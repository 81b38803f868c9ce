#ifndef DATALAWYER_COMMON_METRICS_H_
#define DATALAWYER_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace datalawyer {

/// Log2 bucket index for `value` in the shared 40-bucket layout used by
/// Histogram, the rollup slots, and the morsel timing profiles: bucket b
/// counts observations in [2^(b-1), 2^b); bucket 0 counts values < 1
/// (including NaN and negatives).
int LogBucketFor(double value);

/// Quantile estimate over a log2 bucket array (nearest-rank bucket pick,
/// midpoint convention inside it, clamped to the observed [mn, mx]). The
/// single implementation behind Histogram::Percentile, the windowed
/// rollups, and the per-operator morsel histograms, so they all agree by
/// construction.
double LogBucketPercentile(const uint64_t* buckets, int num_buckets,
                           uint64_t n, double mn, double mx, double q);

/// Monotonically increasing counter. Increment is one relaxed atomic add;
/// safe from any thread, including ThreadPool workers.
class Counter {
 public:
  void Increment(uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Log-scale histogram over non-negative values (canonically microseconds).
/// Bucket b counts observations in [2^(b-1), 2^b); bucket 0 counts values
/// < 1. 40 buckets cover up to ~2^39 µs ≈ 6 days — ample for any span this
/// system times. Observe() is lock-free (relaxed atomics per bucket);
/// percentile estimates interpolate linearly inside the winning bucket, so
/// they carry the usual power-of-two bucket resolution (< 50% relative
/// error, far less in practice near bucket edges).
class Histogram {
 public:
  static constexpr int kNumBuckets = 40;

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;

  /// Estimated value at quantile q in [0, 1] (0.5 = median). 0 when empty.
  double Percentile(double q) const;

  /// Upper bound of bucket b (the Prometheus `le` label).
  static double BucketUpperBound(int b);
  uint64_t bucket_count(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  /// Sum/min/max kept under a light mutex: doubles have no portable atomic
  /// fetch_add, and Observe is never on a disabled-path hot loop.
  mutable std::mutex mu_;
  bool seen_any_ = false;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named counters and histograms with Prometheus text exposition.
///
/// Lookup by name takes a mutex; hot paths should resolve their handles
/// once (pointers remain valid for the registry's lifetime) and then update
/// lock-free. `MetricsRegistry::Global()` is the process-wide instance the
/// DataLawyer pipeline records into when `enable_metrics` is on; isolated
/// registries can be constructed freely (tests, benches).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  static MetricsRegistry& Global();

  /// Finds or creates. `help` is kept from the first registration.
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  /// Prometheus text exposition format: HELP/TYPE headers, cumulative
  /// `_bucket{le="..."}` lines per histogram plus `_sum`/`_count`.
  std::string ExposeText() const;

  /// Compact JSON snapshot: counters as numbers, histograms as
  /// {count,mean,min,max,p50,p95,p99}. Used by the bench harness.
  std::string ToJson() const;

  /// Human-readable summary: one row per histogram with count, mean, p50,
  /// p95, p99 (the shell's `\metrics` header — the Table 4 phase
  /// percentiles at a glance), followed by a counter table (cache and
  /// incremental-evaluation totals). Empty histograms render explicitly
  /// with count 0 and `-` in every percentile column, so a missing phase
  /// is visibly "no samples" rather than silently absent.
  std::string SummaryText() const;

  /// Resets every metric to zero (handles stay valid).
  void ResetAll();

  std::vector<std::string> CounterNames() const;
  std::vector<std::string> HistogramNames() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<std::unique_ptr<Counter>, std::string>>
      counters_;
  std::map<std::string, std::pair<std::unique_ptr<Histogram>, std::string>>
      histograms_;
};

/// Fixed-width time-window rollups of enforcement verdicts and per-phase
/// latency. A ring of one-second slots (each holding verdict counts plus a
/// log2 bucket array per phase, the same bucket layout as Histogram) is
/// merged on demand into 1s / 10s / 60s window snapshots with p50/p95
/// computed by the same nearest-rank-with-midpoint convention Histogram
/// uses — so a rollup percentile over a window that saw every sample agrees
/// with the cumulative `\metrics` histogram to within one bucket.
///
/// Record() takes one mutex; it runs once per checked query on the
/// enforcement (not query-execution) path, matching the discipline of the
/// decision store. Snapshots merge at read time, so an idle system pays
/// nothing for windows sliding past.
class RollupRegistry {
 public:
  /// Phases carried per-slot. kTotal is end-to-end enforcement latency;
  /// the rest mirror the per-query phases (core PhaseTimes) that dominate
  /// it.
  enum Phase {
    kTotal = 0,
    kLogGen,
    kPolicyEval,
    kCompaction,
    kUserExec,
    kNumPhases
  };
  static const char* PhaseName(int phase);

  static constexpr int kNumWindows = 3;
  static constexpr int kWindowSeconds[kNumWindows] = {1, 10, 60};

  struct WindowSnapshot {
    int window_s = 0;
    uint64_t queries = 0;
    uint64_t rejected = 0;
    double rejection_rate = 0;  ///< rejected / queries; 0 when idle
    double p50[kNumPhases] = {};
    double p95[kNumPhases] = {};
    /// Scheduler-utilization aggregates over the window (see RecordSched).
    uint64_t sched_morsels = 0;
    uint64_t sched_steals = 0;
    uint64_t sched_queue_wait_us = 0;
    uint64_t sched_busy_us = 0;
  };

  RollupRegistry() = default;
  static RollupRegistry& Global();

  /// Records one verdict with its per-phase latencies (µs, indexed by
  /// Phase) at the current steady-clock time.
  void Record(bool rejected, const double phase_us[kNumPhases]);
  /// Deterministic-clock variant for tests.
  void RecordAt(int64_t now_us, bool rejected,
                const double phase_us[kNumPhases]);

  /// Records one query's scheduler utilization — morsel tasks run, steals
  /// observed, summed submit-to-start latency, and parallel CPU time — into
  /// the current one-second slot, so the trailing windows can answer "how
  /// hard was the pool working over the last N seconds". Same locking
  /// discipline as Record(): one mutex, once per checked query.
  void RecordSched(uint64_t morsels, uint64_t steals, uint64_t queue_wait_us,
                   uint64_t busy_us);
  void RecordSchedAt(int64_t now_us, uint64_t morsels, uint64_t steals,
                     uint64_t queue_wait_us, uint64_t busy_us);

  /// Merges the slots covering the trailing `window_s` seconds.
  WindowSnapshot Snapshot(int window_s) const;
  WindowSnapshot SnapshotAt(int64_t now_us, int window_s) const;

  /// Prometheus gauges for every window: dl_rollup_queries,
  /// dl_rollup_rejected, dl_rollup_rejection_rate, and
  /// dl_rollup_phase_us{phase=...,quantile=...}.
  void AppendExposition(std::string* out) const;

  /// One table row per window: the shell's `\top` view.
  std::string SummaryText() const;

  void Reset();

  /// Steady-clock microseconds (the time base Record() stamps with).
  static int64_t NowUs();

  RollupRegistry(const RollupRegistry&) = delete;
  RollupRegistry& operator=(const RollupRegistry&) = delete;

 private:
  /// One second of observations. 64 slots > the widest 60 s window, so a
  /// slot is never overwritten while still inside any window.
  static constexpr int kNumSlots = 64;
  struct Slot {
    int64_t epoch = -1;  ///< seconds-since-clock-origin this slot covers
    uint64_t queries = 0;
    uint64_t rejected = 0;
    uint64_t buckets[kNumPhases][Histogram::kNumBuckets] = {};
    double min_v[kNumPhases] = {};
    double max_v[kNumPhases] = {};
    bool seen[kNumPhases] = {};
    uint64_t sched_morsels = 0;
    uint64_t sched_steals = 0;
    uint64_t sched_queue_wait_us = 0;
    uint64_t sched_busy_us = 0;
    void Clear(int64_t new_epoch);
  };

  mutable std::mutex mu_;
  Slot slots_[kNumSlots];
};

}  // namespace datalawyer

#endif  // DATALAWYER_COMMON_METRICS_H_
