#ifndef DATALAWYER_PERFBENCH_WORKLOAD_H_
#define DATALAWYER_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "workload/mimic.h"

namespace datalawyer {
namespace perfbench {

/// What the closed-loop client does with one generated statement.
enum class StmtKind {
  kSelect,  ///< DataLawyer::Execute of a SELECT (checked, logged, answered)
  kProbe,   ///< DataLawyer::WouldAllow of a SELECT (dry run)
  kWrite,   ///< DataLawyer::Execute of an INSERT/DELETE (bypasses policies)
};

const char* StmtKindName(StmtKind kind);

/// One statement of a workload stream. `expect_reject` is the verdict the
/// workload was built to produce (every statement is designed to be
/// admitted except churn's P2-violating joins), checked on every statement
/// in addition to the NoOpt reference comparison.
struct Stmt {
  StmtKind kind = StmtKind::kSelect;
  int64_t uid = 0;
  std::string sql;
  bool expect_reject = false;
};

enum class Mix { kInteractive, kAnalytic, kChurn };

/// A named workload: dataset shape, policy set, DataLawyer options, and
/// the statement mix its stream draws from.
struct WorkloadSpec {
  std::string name;
  Mix mix = Mix::kInteractive;
  MimicConfig data;
  std::vector<std::pair<std::string, std::string>> policies;
  DataLawyerOptions options;
  /// Statements run at the end of set-up, before the timed loop; they are
  /// the first statements of the stream.
  int warmup_statements = 0;
  /// Statement-stream prefix replayed through a NoOpt() system and compared
  /// digest by digest (NoOpt keeps the whole log, so its cost grows with
  /// the prefix).
  int reference_statements = 0;
  /// One-line description of the mix parameters, for the run metadata.
  std::string params;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& AllWorkloads();

/// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Clock ticks per statement (the ManualClock step); Table 2's windows are
/// in the same unit.
inline constexpr int64_t kClockStep = 10;

/// Deterministic statement generator: the same (workload, seed) yields the
/// same statement sequence, whatever the length consumed. The program under
/// test sees only the generated SQL.
class StatementStream {
 public:
  StatementStream(const WorkloadSpec& spec, uint64_t seed);

  Stmt Next();

 private:
  uint64_t Uniform(uint64_t n) { return rng_() % n; }
  Stmt Lookup(int64_t uid);
  Stmt ViolatingJoin();

  const WorkloadSpec& spec_;
  std::mt19937_64 rng_;
  /// The DELETE half of a churn group-membership flip, emitted right after
  /// its INSERT.
  std::vector<Stmt> pending_;
  int64_t next_charttime_ = 0;
};

}  // namespace perfbench
}  // namespace datalawyer

#endif  // DATALAWYER_PERFBENCH_WORKLOAD_H_
