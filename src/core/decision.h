#ifndef DATALAWYER_CORE_DECISION_H_
#define DATALAWYER_CORE_DECISION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/stats.h"

namespace datalawyer {

/// One usage-log row that satisfied a rejecting policy: the counterexample
/// the operator is shown when asking "why was this query rejected?".
/// Captured through the executor's lineage machinery at rejection time,
/// before the staged increment is discarded.
struct DecisionWitness {
  std::string relation;  ///< usage-log relation the row lives in
  int64_t row_id = 0;    ///< stable row id within that relation
  bool from_increment = false;  ///< staged by the rejected query itself
  int64_t ts = -1;       ///< the row's log timestamp; -1 if no ts column
  std::vector<std::string> values;  ///< rendered column values
};

/// What one active policy contributed to a verdict.
struct PolicyOutcome {
  std::string policy;
  /// "violated" (rejected the query), "ok" (evaluated clean), "pruned"
  /// (dismissed early by guard/partial/increment checks), or "skipped"
  /// (never reached — e.g. a later policy after an early rejection).
  std::string outcome;
  uint64_t evaluations = 0;  ///< statements run for this policy this query
  uint64_t prunes = 0;
  double eval_us = 0;
  /// "hit" when the verdict came from incremental state, "fallback" when
  /// the state declined and the full evaluation ran, empty when the
  /// incremental path was never consulted (full-only plan or feature off).
  std::string incremental;
};

/// The full, structured explanation of one enforcement verdict: what was
/// asked, what the system decided, which policies said what, which log rows
/// a rejecting policy matched, and where the time went. This is the only
/// per-query record: the audit trail (§2's auditing scenario) and the slow
/// log are views over it.
struct DecisionRecord {
  uint64_t id = 0;     ///< monotonic per-store; 0 is never assigned
  int64_t ts = 0;      ///< logical clock at decision time
  int64_t uid = 0;
  std::string query_sql;
  uint64_t query_hash = 0;  ///< FNV-1a of query_sql (grouping key)
  bool admitted = false;
  bool probe = false;
  std::string policy;  ///< first rejecting policy; empty when admitted
  std::vector<std::string> messages;  ///< violation messages
  std::vector<PolicyOutcome> outcomes;  ///< registration order
  std::vector<DecisionWitness> witnesses;
  /// Violating rows beyond the capture cap (counted, not materialized).
  uint64_t witnesses_truncated = 0;

  PhaseTimes phases;

  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;

  /// Scheduler footprint of this query (from its task-group slot): morsels
  /// dispatched, its own tasks executed via a steal, and summed
  /// submit-to-start queue latency — so the decision log can answer "which
  /// query starved the pool".
  size_t morsels = 0;
  size_t steals = 0;
  uint64_t queue_wait_us = 0;

  double total_us() const { return phases.total_us(); }

  const char* verdict() const { return admitted ? "accept" : "reject"; }

  /// Names of the policies whose outcome is "violated", in registration
  /// order — the audit trail's violated-policies column.
  std::vector<std::string> ViolatedPolicies() const;

  /// One JSON object (JsonEscape'd strings throughout).
  std::string ToJson() const;
};

/// Ring-bounded store of recent DecisionRecords.
///
/// `enabled()` is a single relaxed atomic load — the only cost the accept
/// path pays when decision recording is off (the tracing discipline).
/// Appends happen on the Execute path only; the class itself is plain and
/// relies on DataLawyer's serial-API contract.
class DecisionStore {
 public:
  explicit DecisionStore(size_t capacity = 1024) : capacity_(capacity) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Reserves the next decision id (monotonic from 1; never reused).
  uint64_t NextId() { return next_id_++; }

  void Append(DecisionRecord record);

  size_t size() const { return records_.size(); }
  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity);
  uint64_t total_appended() const { return total_appended_; }
  uint64_t dropped() const { return dropped_; }

  /// Oldest-first view of the retained records.
  const std::deque<DecisionRecord>& records() const { return records_; }

  /// The `n` most recent records, oldest-first.
  std::vector<DecisionRecord> Tail(size_t n) const;

  /// nullptr when the id was never assigned or has been evicted. The
  /// pointer is invalidated by the next Append/Clear.
  const DecisionRecord* FindById(uint64_t id) const;

  /// JSON array of the retained records whose total_us() is at least
  /// `min_total_us` (all of them by default), oldest-first. The shell's
  /// `\slow json` passes the slow-enforcement threshold.
  std::string ToJson(double min_total_us = 0) const;

  void Clear();

  /// Writes the retained records to `path` as the `dl-audit-v2` TSV audit
  /// trail: one line per record with ts, uid, verdict, probe, total / user
  /// execution / log generation / evaluation / compaction µs, the record
  /// id, the violated policies, and the query text.
  Status SaveTo(const std::string& path) const;
  /// Appends the records of a `dl-audit-v2` (or id-less `dl-audit-v1`)
  /// file, evicting as needed. All-or-nothing: a malformed line — wrong
  /// field count, a number that does not parse completely, a flag other
  /// than 0/1 — returns InvalidArgument naming the line and leaves the
  /// store unchanged. A file id at or above the next unassigned id is kept
  /// (so a save/load round trip into a fresh store preserves ids); any
  /// other record gets the next id.
  Status LoadFrom(const std::string& path);

 private:
  std::atomic<bool> enabled_{true};
  uint64_t next_id_ = 1;
  size_t capacity_;
  std::deque<DecisionRecord> records_;
  uint64_t total_appended_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace datalawyer

#endif  // DATALAWYER_CORE_DECISION_H_
