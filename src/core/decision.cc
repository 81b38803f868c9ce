#include "core/decision.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/strings.h"

namespace datalawyer {

namespace {

void AppendNumber(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

void AppendStringArray(std::string* out, const std::vector<std::string>& xs) {
  *out += "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "\"";
    AppendJsonEscaped(out, xs[i]);
    *out += "\"";
  }
  *out += "]";
}

/// Policy names ride inside one TSV field joined by raw commas, so on top
/// of the shared TsvEscape they escape the comma too. TsvUnescape's
/// unknown-escape rule turns `\,` back into `,`.
std::string EscapeName(const std::string& s) {
  std::string out;
  for (char c : TsvEscape(s)) {
    if (c == ',') out += '\\';
    out += c;
  }
  return out;
}

/// v2 carries the decision id; v1 files (11 fields) still load, and their
/// records get fresh ids.
constexpr char kHeader[] = "dl-audit-v2";
constexpr char kHeaderV1[] = "dl-audit-v1";

bool ParseFlag(const std::string& s, bool* out) {
  if (s != "0" && s != "1") return false;
  *out = s == "1";
  return true;
}

}  // namespace

std::vector<std::string> DecisionRecord::ViolatedPolicies() const {
  std::vector<std::string> names;
  for (const PolicyOutcome& o : outcomes) {
    if (o.outcome == "violated") names.push_back(o.policy);
  }
  return names;
}

std::string DecisionRecord::ToJson() const {
  std::string out = "{";
  out += "\"id\":" + std::to_string(id);
  out += ",\"ts\":" + std::to_string(ts);
  out += ",\"uid\":" + std::to_string(uid);
  out += ",\"verdict\":\"";
  out += verdict();
  out += "\",\"probe\":";
  out += probe ? "true" : "false";
  out += ",\"query\":\"";
  AppendJsonEscaped(&out, query_sql);
  out += "\",\"query_hash\":\"";
  char hash_buf[24];
  std::snprintf(hash_buf, sizeof(hash_buf), "%016llx",
                (unsigned long long)query_hash);
  out += hash_buf;
  out += "\"";
  if (!policy.empty()) {
    out += ",\"policy\":\"";
    AppendJsonEscaped(&out, policy);
    out += "\"";
  }
  if (!messages.empty()) {
    out += ",\"messages\":";
    AppendStringArray(&out, messages);
  }
  out += ",\"outcomes\":[";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const PolicyOutcome& o = outcomes[i];
    if (i > 0) out += ",";
    out += "{\"policy\":\"";
    AppendJsonEscaped(&out, o.policy);
    out += "\",\"outcome\":\"";
    AppendJsonEscaped(&out, o.outcome);
    out += "\",\"evaluations\":" + std::to_string(o.evaluations);
    out += ",\"prunes\":" + std::to_string(o.prunes);
    out += ",\"eval_us\":";
    AppendNumber(&out, o.eval_us);
    if (!o.incremental.empty()) {
      out += ",\"incremental\":\"";
      AppendJsonEscaped(&out, o.incremental);
      out += "\"";
    }
    out += "}";
  }
  out += "],\"witnesses\":[";
  for (size_t i = 0; i < witnesses.size(); ++i) {
    const DecisionWitness& w = witnesses[i];
    if (i > 0) out += ",";
    out += "{\"relation\":\"";
    AppendJsonEscaped(&out, w.relation);
    out += "\",\"row_id\":" + std::to_string(w.row_id);
    out += ",\"from_increment\":";
    out += w.from_increment ? "true" : "false";
    out += ",\"ts\":" + std::to_string(w.ts);
    out += ",\"values\":";
    AppendStringArray(&out, w.values);
    out += "}";
  }
  out += "]";
  if (witnesses_truncated > 0) {
    out += ",\"witnesses_truncated\":" + std::to_string(witnesses_truncated);
  }
  out += ",\"timings_us\":{\"parse\":";
  AppendNumber(&out, phases.parse_us);
  out += ",\"bind\":";
  AppendNumber(&out, phases.bind_us);
  out += ",\"plan\":";
  AppendNumber(&out, phases.plan_us);
  out += ",\"log_gen\":";
  AppendNumber(&out, phases.log_gen_us);
  out += ",\"policy_eval\":";
  AppendNumber(&out, phases.policy_eval_us);
  out += ",\"compaction\":";
  AppendNumber(&out, phases.compaction_us);
  out += ",\"user_exec\":";
  AppendNumber(&out, phases.user_exec_us);
  out += ",\"total\":";
  AppendNumber(&out, total_us());
  out += "}";
  out += ",\"plan_cache\":{\"hits\":" + std::to_string(plan_cache_hits) +
         ",\"misses\":" + std::to_string(plan_cache_misses) + "}";
  out += ",\"sched\":{\"morsels\":" + std::to_string(morsels) +
         ",\"steals\":" + std::to_string(steals) +
         ",\"queue_wait_us\":" + std::to_string(queue_wait_us) + "}";
  out += "}";
  return out;
}

void DecisionStore::Append(DecisionRecord record) {
  ++total_appended_;
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (records_.size() >= capacity_) {
    records_.pop_front();
    ++dropped_;
  }
  records_.push_back(std::move(record));
}

void DecisionStore::set_capacity(size_t capacity) {
  capacity_ = capacity;
  while (records_.size() > capacity_) {
    records_.pop_front();
    ++dropped_;
  }
}

std::vector<DecisionRecord> DecisionStore::Tail(size_t n) const {
  size_t start = records_.size() > n ? records_.size() - n : 0;
  return std::vector<DecisionRecord>(records_.begin() + start,
                                     records_.end());
}

const DecisionRecord* DecisionStore::FindById(uint64_t id) const {
  if (records_.empty()) return nullptr;
  uint64_t front_id = records_.front().id;
  if (id < front_id || id > records_.back().id) return nullptr;
  // Ids are assigned monotonically and appended in order, so the ring is
  // dense: offset lookup, verified in case of manual appends in tests.
  size_t idx = size_t(id - front_id);
  if (idx < records_.size() && records_[idx].id == id) return &records_[idx];
  for (const DecisionRecord& r : records_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

std::string DecisionStore::ToJson(double min_total_us) const {
  std::string out = "[";
  bool first = true;
  for (const DecisionRecord& r : records_) {
    if (r.total_us() < min_total_us) continue;
    if (!first) out += ",";
    first = false;
    out += r.ToJson();
  }
  out += "]";
  return out;
}

void DecisionStore::Clear() {
  records_.clear();
  total_appended_ = 0;
  dropped_ = 0;
}

Status DecisionStore::SaveTo(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << kHeader << "\n";
  char buf[192];
  for (const DecisionRecord& r : records_) {
    std::string policies;  // each name escaped; raw commas separate them
    std::vector<std::string> violated = r.ViolatedPolicies();
    for (size_t i = 0; i < violated.size(); ++i) {
      if (i > 0) policies += ",";
      policies += EscapeName(violated[i]);
    }
    std::snprintf(buf, sizeof(buf),
                  "%lld\t%lld\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%llu",
                  (long long)r.ts, (long long)r.uid, r.admitted ? 1 : 0,
                  r.probe ? 1 : 0, r.total_us(), r.phases.user_exec_us,
                  r.phases.log_gen_us, r.phases.policy_eval_us,
                  r.phases.compaction_us, (unsigned long long)r.id);
    out << buf << "\t" << policies << "\t" << TsvEscape(r.query_sql) << "\n";
  }
  out.flush();
  if (!out) return Status::Internal("write failed for " + path);
  return Status::OK();
}

Status DecisionStore::LoadFrom(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::string line;
  if (!std::getline(in, line) || in.eof() ||
      (line != kHeader && line != kHeaderV1)) {
    return Status::InvalidArgument("not an audit file: " + path);
  }
  const bool v1 = line == kHeaderV1;
  const size_t expected_fields = v1 ? 11 : 12;
  // Parse everything first; the store changes only if every line is good.
  std::vector<DecisionRecord> loaded;
  for (size_t line_no = 2; std::getline(in, line); ++line_no) {
    auto malformed = [&](const std::string& why) {
      return Status::InvalidArgument("malformed audit line " +
                                     std::to_string(line_no) + " in " + path +
                                     ": " + why);
    };
    // SaveTo ends every line with '\n'; a torn write ends at EOF instead.
    if (in.eof()) return malformed("truncated");
    if (line.empty()) continue;
    std::vector<std::string> f = SplitEscaped(line, '\t');
    if (f.size() != expected_fields) {
      return malformed(std::to_string(f.size()) + " fields, expected " +
                       std::to_string(expected_fields));
    }
    DecisionRecord r;
    PhaseTimes& p = r.phases;
    double total_us = 0;
    int64_t id = 0;
    const char* bad = nullptr;
    if (!ParseWhole(f[0], &r.ts)) {
      bad = "ts";
    } else if (!ParseWhole(f[1], &r.uid)) {
      bad = "uid";
    } else if (!ParseFlag(f[2], &r.admitted)) {
      bad = "admitted";
    } else if (!ParseFlag(f[3], &r.probe)) {
      bad = "probe";
    } else if (!ParseWhole(f[4], &total_us)) {
      bad = "total_us";
    } else if (!ParseWhole(f[5], &p.user_exec_us)) {
      bad = "query_exec_us";
    } else if (!ParseWhole(f[6], &p.log_gen_us)) {
      bad = "log_gen_us";
    } else if (!ParseWhole(f[7], &p.policy_eval_us)) {
      bad = "policy_eval_us";
    } else if (!ParseWhole(f[8], &p.compaction_us)) {
      bad = "compaction_us";
    } else if (!v1 && (!ParseWhole(f[9], &id) || id < 0)) {
      bad = "decision_id";
    }
    if (bad != nullptr) return malformed(std::string("bad ") + bad);
    r.id = uint64_t(id);
    // The audit columns carry no parse/bind/plan split; the rest of the
    // total is booked as parse_us so total_us() survives the round trip.
    p.parse_us = std::max(0.0, total_us - p.total_us());
    const size_t names = v1 ? 9 : 10;
    for (const std::string& name : SplitEscaped(f[names], ',')) {
      if (name.empty()) continue;
      PolicyOutcome o;
      o.policy = TsvUnescape(name);
      o.outcome = "violated";
      r.outcomes.push_back(std::move(o));
    }
    if (!r.admitted && !r.outcomes.empty()) r.policy = r.outcomes[0].policy;
    r.query_sql = TsvUnescape(f[names + 1]);
    r.query_hash = Fnv1a64(r.query_sql);
    loaded.push_back(std::move(r));
  }
  for (DecisionRecord& r : loaded) {
    r.id = std::max(r.id, next_id_);  // ids stay monotonic and unique
    next_id_ = r.id + 1;
    Append(std::move(r));
  }
  return Status::OK();
}

}  // namespace datalawyer
