// The check programs Prepare compiles (DataLawyer::DescribeCheckPrograms),
// pinned for P1-P6, a guarded policy, a UNION policy, a non-monotone
// policy and a unified rate-limit family under every strategy, so that a
// change to a step shows up as a one-line diff.
//
// Each step reads `round[needs] step`, or `round[needs] step|ready` when a
// ready IncrementalState runs something else. Rounds 0-3 are the
// interleaved rounds (round k needs the first k of users, schema,
// provenance); round 4 is the closing round. `guard>` runs the §6 guard
// and then the step in the same slot; `guard>>` runs the precise step in
// the round's next wave. `+improved` marks a §4.3 improved partial. A
// partial over the clock and Constants tables alone (every policy's round
// 0 here, except P1's, which reads `groups`) compiles to `nothing`, and
// so does a round that generated no relation the policy reads (round 2,
// `schema`, for everything that does not read it).

#include <gtest/gtest.h>

#include <string>

#include "core/datalawyer.h"
#include "workload/mimic.h"
#include "workload/paper_policies.h"

namespace datalawyer {
namespace {

class CheckProgramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadMimicData(&db_, MimicConfig::Tiny()).ok());
  }

  std::string Programs(EvalStrategy strategy, bool unification,
                       bool improved) {
    DataLawyerOptions options;
    options.strategy = strategy;
    options.enable_unification = unification;
    options.enable_improved_partial = improved;
    DataLawyer dl(&db_, nullptr, nullptr, options);
    for (const auto& [name, sql] : PaperPolicies::All()) {
      EXPECT_TRUE(dl.AddPolicy(name, sql).ok()) << name;
    }
    EXPECT_TRUE(dl.AddPolicyWithGuard(
                      "guarded", PaperPolicies::P6(2, 300, 3),
                      "SELECT DISTINCT 'suspicious' FROM users u, clock c "
                      "WHERE u.uid = 2 AND u.ts > c.ts - 300")
                    .ok());
    EXPECT_TRUE(dl.AddPolicy("union",
                             "SELECT DISTINCT 'a' FROM users u, schema s "
                             "WHERE u.ts = s.ts AND s.irid = 'chartevents' "
                             "UNION SELECT DISTINCT 'b' FROM provenance p "
                             "WHERE p.irid = 'd_patients'")
                    .ok());
    // SUM is not monotone, and no member groups: it cannot interleave.
    EXPECT_TRUE(dl.AddPolicy("sum",
                             "SELECT DISTINCT 'uid 3 read often' "
                             "FROM users u, clock c WHERE u.uid = 3 "
                             "AND u.ts > c.ts - 100 HAVING SUM(u.uid) > 12")
                    .ok());
    for (int uid = 0; uid < 3; ++uid) {
      EXPECT_TRUE(dl.AddPolicy("rate" + std::to_string(uid),
                               PaperPolicies::RateLimitForUser(uid, 200, 4))
                      .ok());
    }
    EXPECT_TRUE(dl.Prepare().ok());
    return dl.DescribeCheckPrograms();
  }

  Database db_;
};

// State-backed policies answer from state once a check proves the
// increment cannot join; the others keep the partial ladder. P2 is covered
// at round 2 (it reads no provenance), P1 and the rate limits at round 1.
TEST_F(CheckProgramTest, InterleavedUnifiedWithImprovedPartials) {
  EXPECT_EQ(
      Programs(EvalStrategy::kInterleaved, /*unification=*/true,
               /*improved=*/true),
      "guarded: 0[] nothing; 1[users] guard>partial+improved|check; "
      "2[users,schema] nothing; "
      "3[users,schema,provenance] guard>full;\n"
      "p1: 0[] partial|nothing; 1[users] full;\n"
      "p2: 0[] nothing; 1[users] partial+improved|check; "
      "2[users,schema] full;\n"
      "p3: 0[] nothing; 1[users] partial+improved|check; "
      "2[users,schema] nothing; 3[users,schema,provenance] full;\n"
      "p4: 0[] nothing; 1[users] partial|check; "
      "2[users,schema] nothing; 3[users,schema,provenance] full;\n"
      "p5: 0[] nothing; 1[users] partial+improved|check; "
      "2[users,schema] nothing; 3[users,schema,provenance] full;\n"
      "p6: 0[] nothing; 1[users] partial+improved|check; "
      "2[users,schema] nothing; 3[users,schema,provenance] full;\n"
      "union: 0[] nothing; 1[users] partial|check; "
      "2[users,schema] partial|check; 3[users,schema,provenance] full;\n"
      "sum: 4[users] full;\n"
      "unified:rate0(+2): 0[] nothing; 1[users] full;\n");
}

TEST_F(CheckProgramTest, InterleavedSeparatePolicies) {
  EXPECT_EQ(
      Programs(EvalStrategy::kInterleaved, /*unification=*/false,
               /*improved=*/false),
      "p1: 0[] partial|nothing; 1[users] full;\n"
      "p2: 0[] nothing; 1[users] partial|check; 2[users,schema] full;\n"
      "p3: 0[] nothing; 1[users] partial|check; "
      "2[users,schema] nothing; 3[users,schema,provenance] full;\n"
      "p4: 0[] nothing; 1[users] partial|check; "
      "2[users,schema] nothing; 3[users,schema,provenance] full;\n"
      "p5: 0[] nothing; 1[users] partial|check; "
      "2[users,schema] nothing; 3[users,schema,provenance] full;\n"
      "p6: 0[] nothing; 1[users] partial|check; "
      "2[users,schema] nothing; 3[users,schema,provenance] full;\n"
      "guarded: 0[] nothing; 1[users] guard>partial|check; "
      "2[users,schema] nothing; "
      "3[users,schema,provenance] guard>full;\n"
      "union: 0[] nothing; 1[users] partial|check; "
      "2[users,schema] partial|check; 3[users,schema,provenance] full;\n"
      "sum: 4[users] full;\n"
      "rate0: 0[] nothing; 1[users] full;\n"
      "rate1: 0[] nothing; 1[users] full;\n"
      "rate2: 0[] nothing; 1[users] full;\n");
}

// Serial: every policy at the closing round, needing only its own
// relations; a guard needs only the guard's.
TEST_F(CheckProgramTest, Serial) {
  EXPECT_EQ(Programs(EvalStrategy::kSerial, /*unification=*/true,
                     /*improved=*/false),
            "guarded: 4[users] guard>>full;\n"
            "p1: 4[users] full;\n"
            "p2: 4[users,schema] full;\n"
            "p3: 4[users,provenance] full;\n"
            "p4: 4[users,provenance] full;\n"
            "p5: 4[users,provenance] full;\n"
            "p6: 4[users,provenance] full;\n"
            "union: 4[users,schema,provenance] full;\n"
            "sum: 4[users] full;\n"
            "unified:rate0(+2): 4[users] full;\n");
}

// Union: one shared full step over every guardless single-message policy,
// merged first; the guarded policy keeps its own program.
TEST_F(CheckProgramTest, Union) {
  EXPECT_EQ(Programs(EvalStrategy::kUnion, /*unification=*/true,
                     /*improved=*/false),
            "(union): 4[users,schema,provenance] full;\n"
            "guarded: 4[users] guard>>full;\n");
}

}  // namespace
}  // namespace datalawyer
