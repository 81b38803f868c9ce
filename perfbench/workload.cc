#include "workload.h"

#include "workload/paper_policies.h"

namespace datalawyer {
namespace perfbench {

const char* StmtKindName(StmtKind kind) {
  switch (kind) {
    case StmtKind::kSelect:
      return "select";
    case StmtKind::kProbe:
      return "probe";
    case StmtKind::kWrite:
      return "write";
  }
  return "?";
}

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> specs;

  // interactive: the enforcement layers (compaction, policy evaluation,
  // incremental state) do nearly all the work; the user query is an indexed
  // point lookup.
  WorkloadSpec interactive;
  interactive.name = "interactive";
  interactive.mix = Mix::kInteractive;
  interactive.policies = PaperPolicies::All();
  interactive.warmup_statements = 300;
  interactive.reference_statements = 800;
  interactive.params =
      "W1 point lookups on random subject_id; uid 1 50%, uids 0-3 50%; "
      "P1-P6; threads 0";
  specs.push_back(interactive);

  // analytic: the mirror image — bind/plan/execute and provenance
  // generation dominate, compaction and evaluation are cheap.
  WorkloadSpec analytic;
  analytic.name = "analytic";
  analytic.mix = Mix::kAnalytic;
  // The repository's 4k-patient bench shape. 40000 chartevents give every
  // patient 10 heart-rate events, so HAVING COUNT > 10 empties the answer
  // after the scan, join and grouping (and their lineage) are done. With 12
  // events per patient the answers and provenance are non-empty, and P5/P6
  // witness marking then dominates (see README.md).
  analytic.data.num_patients = 4000;
  analytic.data.num_chartevents = 40000;
  analytic.policies = {{"p3", PaperPolicies::P3()},
                       {"p4", PaperPolicies::P4()},
                       {"p5", PaperPolicies::P5()},
                       {"p6", PaperPolicies::P6()}};
  analytic.options.exec_threads = 2;
  analytic.options.policy_threads = 2;
  analytic.warmup_statements = 40;
  analytic.reference_statements = 100;
  analytic.params =
      "W3/W4 range aggregates over 70-650 patients; uid 1 75%, uids 0,2,3 "
      "25%; P3-P6; exec_threads 2, policy_threads 2";
  specs.push_back(analytic);

  // churn: the interactive dataset and policies under mixed operations —
  // rejects with witness capture, dry-run probes, and writes that
  // invalidate incremental state.
  WorkloadSpec churn = interactive;
  churn.name = "churn";
  churn.mix = Mix::kChurn;
  churn.params =
      "per draw: 67.5% W1 lookups (uids 0-3), 10% P2-violating joins (uid "
      "1), 7% WouldAllow probes, 7.5% groups INSERT+DELETE flips, 8% "
      "chartevents INSERTs; P1-P6; threads 0";
  specs.push_back(churn);
  return specs;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = MakeWorkloads();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

StatementStream::StatementStream(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed), next_charttime_(spec.data.num_chartevents) {}

Stmt StatementStream::Lookup(int64_t uid) {
  Stmt s;
  s.uid = uid;
  s.sql = "SELECT * FROM d_patients WHERE subject_id = " +
          std::to_string(Uniform(uint64_t(spec_.data.num_patients)));
  return s;
}

// P2 forbids uid 1 from joining poe_order with anything but poe_med.
Stmt StatementStream::ViolatingJoin() {
  Stmt s;
  s.uid = 1;
  s.sql =
      "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
      "WHERE o.subject_id = p.subject_id AND o.order_id = " +
      std::to_string(Uniform(uint64_t(spec_.data.num_orders)));
  s.expect_reject = true;
  return s;
}

Stmt StatementStream::Next() {
  if (!pending_.empty()) {
    Stmt s = std::move(pending_.back());
    pending_.pop_back();
    return s;
  }
  switch (spec_.mix) {
    case Mix::kInteractive:
      return Lookup(Uniform(2) == 0 ? 1 : int64_t(Uniform(4)));

    case Mix::kAnalytic: {
      static const int64_t kOtherUids[] = {0, 2, 3};
      int64_t uid = Uniform(4) < 3 ? 1 : kOtherUids[Uniform(3)];
      int64_t width = 70 + int64_t(Uniform(650 - 70 + 1));
      int64_t lo =
          -1 + int64_t(Uniform(uint64_t(spec_.data.num_patients - width + 1)));
      Stmt s;
      s.uid = uid;
      s.sql =
          "SELECT c.subject_id, p.sex, COUNT(c.subject_id) "
          "FROM chartevents c, d_patients p "
          "WHERE c.subject_id < " + std::to_string(lo + width + 1) +
          " AND c.subject_id > " + std::to_string(lo) +
          " AND p.subject_id = c.subject_id AND c.itemid = 211 "
          "GROUP BY c.subject_id, p.sex "
          "HAVING COUNT(c.subject_id) > 10";
      return s;
    }

    case Mix::kChurn: {
      uint64_t draw = Uniform(1000);
      if (draw < 675) return Lookup(int64_t(Uniform(4)));
      if (draw < 775) return ViolatingJoin();
      if (draw < 845) {
        Stmt s =
            Uniform(2) == 0 ? Lookup(int64_t(Uniform(4))) : ViolatingJoin();
        s.kind = StmtKind::kProbe;
        return s;
      }
      if (draw < 920) {
        // P1 joins `groups`: each flip changes a table a cached incremental
        // plan depends on, and the DELETE restores the original contents.
        static const int64_t kFlipUids[] = {0, 2, 3};
        std::string uid = std::to_string(kFlipUids[Uniform(3)]);
        Stmt del;
        del.kind = StmtKind::kWrite;
        del.sql = "DELETE FROM groups WHERE uid = " + uid + " AND gid = 'X'";
        pending_.push_back(std::move(del));
        Stmt ins;
        ins.kind = StmtKind::kWrite;
        ins.sql = "INSERT INTO groups VALUES (" + uid + ", 'X')";
        return ins;
      }
      // Draw into locals first: the evaluation order of `+` operands is
      // unspecified, and the stream must not depend on the compiler.
      int64_t subject = int64_t(Uniform(uint64_t(spec_.data.num_patients)));
      int64_t item = 100 + int64_t(Uniform(201));
      if (item == 211) item = 212;  // keep heart-rate counts as loaded
      int64_t value = 40 + int64_t(Uniform(100));
      Stmt s;
      s.kind = StmtKind::kWrite;
      s.sql = "INSERT INTO chartevents VALUES (" + std::to_string(subject) +
              ", " + std::to_string(item) + ", " +
              std::to_string(next_charttime_++) + ", " +
              std::to_string(value) + ".5)";
      return s;
    }
  }
  return Stmt{};
}

}  // namespace perfbench
}  // namespace datalawyer
