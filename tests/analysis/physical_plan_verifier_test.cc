#include "analysis/physical_plan_verifier.h"

#include <limits>
#include <vector>

#include "analysis/verifier.h"
#include "gtest/gtest.h"
#include "physical/physical_plan.h"
#include "plan/logical_plan.h"
#include "verifier_test_util.h"

namespace sparkopt {
namespace analysis {
namespace {

// Logical plan: scan0, scan1, join2(0, 1).
LogicalPlan MakeLogical() {
  LogicalPlan plan;
  LogicalOperator scan0;
  scan0.type = OpType::kScan;
  scan0.table_id = 0;
  LogicalOperator scan1;
  scan1.type = OpType::kScan;
  scan1.table_id = 1;
  LogicalOperator join2;
  join2.type = OpType::kJoin;
  join2.children = {0, 1};
  join2.requires_shuffle = true;
  plan.AddOperator(scan0);
  plan.AddOperator(scan1);
  plan.AddOperator(join2);
  EXPECT_TRUE(plan.Build().ok());
  return plan;
}

QueryStage MakeStage(int id, std::vector<int> op_ids, std::vector<int> deps,
                     bool root) {
  QueryStage st;
  st.id = id;
  st.subq_id = id;
  st.op_ids = std::move(op_ids);
  st.deps = std::move(deps);
  st.num_partitions = 2;
  st.partitions = {{2, 10.0}};
  st.exchanges_output = !root;
  return st;
}

// Physical plan realizing MakeLogical() with one stage per op and the
// join stage shuffling both scans in.
PhysicalPlan MakePhysical() {
  PhysicalPlan plan;
  plan.stages.push_back(MakeStage(0, {0}, {}, false));
  plan.stages.push_back(MakeStage(1, {1}, {}, false));
  plan.stages.push_back(MakeStage(2, {2}, {0, 1}, true));
  plan.join_decisions.push_back(
      {2, JoinAlgo::kSortMergeJoin, 1.0, /*build_op=*/1});
  return plan;
}

VerifyReport RunVerifier(const PhysicalPlan& pplan,
                 const LogicalPlan* lplan = nullptr) {
  PhysicalPlanVerifier v;
  VerifyInput in;
  in.physical_plan = &pplan;
  in.logical_plan = lplan;
  return v.Verify(in);
}

TEST(PhysicalPlanVerifierTest, CleanPlanPasses) {
  LogicalPlan lplan = MakeLogical();
  PhysicalPlan pplan = MakePhysical();
  EXPECT_TRUE(ReportClean(RunVerifier(pplan, &lplan)));
}

TEST(PhysicalPlanVerifierTest, NotApplicableWithoutPlan) {
  PhysicalPlanVerifier v;
  EXPECT_FALSE(v.applicable(VerifyInput{}));
}

TEST(PhysicalPlanVerifierTest, StageCycleIsFailedPrecondition) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[0].deps = {1};
  pplan.stages[1].deps = {0};
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kFailedPrecondition,
                        "stage dependency graph contains a cycle"));
}

TEST(PhysicalPlanVerifierTest, DepOutOfRangeIsOutOfRange) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[2].deps = {0, 7};
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(
      ReportHas(report, StatusCode::kOutOfRange, "dep 7 outside [0, 3)"));
}

TEST(PhysicalPlanVerifierTest, SelfDepIsOutOfRange) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[2].deps.push_back(2);
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange,
                        "dep points at the stage itself"));
}

TEST(PhysicalPlanVerifierTest, DuplicateDepIsOutOfRange) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[2].deps = {0, 1, 0};
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange, "duplicate dep 0"));
}

TEST(PhysicalPlanVerifierTest, ShuffleAndBroadcastDepIsInvalidArgument) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[2].broadcast_deps = {1};  // 1 is already a shuffle dep
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kInvalidArgument,
                        "both a shuffle and a broadcast dependency"));
}

TEST(PhysicalPlanVerifierTest, PartitionCountMismatchIsInternal) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[0].num_partitions = 3;  // but the runs hold 2 tasks
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "num_partitions 3 != partition run counts sum 2"));
}

TEST(PhysicalPlanVerifierTest, NegativePartitionBytesIsOutOfRange) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[0].partitions = {{1, 10.0}, {1, -1.0}};
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange,
                        "negative or non-finite"));
}

TEST(PhysicalPlanVerifierTest, PartitionRunCountBelowOneIsInternal) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[0].partitions = {{0, 5.0}, {2, 10.0}};
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "partition run 0 count 0 < 1"));
}

TEST(PhysicalPlanVerifierTest, PartitionRunCountsPastPartitionsIsInternal) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[1].partitions = {{2, 10.0}, {1, 4.0}};  // 3 tasks, not 2
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "num_partitions 2 != partition run counts sum 3"));
}

TEST(PhysicalPlanVerifierTest, NonFinitePartitionBytesIsOutOfRange) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[2].partitions = {{1, 10.0},
                                {1, std::numeric_limits<double>::infinity()}};
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange,
                        "partition run 1 size inf is negative or non-finite"));
}

TEST(PhysicalPlanVerifierTest, EqualAdjacentPartitionRunsAreInternal) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[0].partitions = {{1, 10.0}, {1, 10.0}};
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "partition run 1 repeats the size of the run before"));
}

TEST(PhysicalPlanVerifierTest, NoRootStageIsFailedPrecondition) {
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[2].exchanges_output = true;  // nothing is the root now
  auto report = RunVerifier(pplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kFailedPrecondition,
                        "expected exactly one root stage"));
}

TEST(PhysicalPlanVerifierTest, OverlappingCoverageIsFailedPrecondition) {
  LogicalPlan lplan = MakeLogical();
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[2].op_ids = {0, 2};  // op 0 already lives in stage 0
  auto report = RunVerifier(pplan, &lplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kFailedPrecondition,
                        "executed by both stage 0 and stage 2"));
}

TEST(PhysicalPlanVerifierTest, UncoveredOpIsFailedPrecondition) {
  LogicalPlan lplan = MakeLogical();
  PhysicalPlan pplan = MakePhysical();
  pplan.stages[1].op_ids.clear();  // op 1 now unexecuted
  auto report = RunVerifier(pplan, &lplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kFailedPrecondition,
                        "logical operator not executed by any stage"));
}

TEST(PhysicalPlanVerifierTest, BhjBuildOverShuffleIsFailedPrecondition) {
  LogicalPlan lplan = MakeLogical();
  PhysicalPlan pplan = MakePhysical();
  // The join claims BHJ with build op 1, but stage 1 still arrives over a
  // shuffle dependency instead of a broadcast.
  pplan.join_decisions[0].algo = JoinAlgo::kBroadcastHashJoin;
  auto report = RunVerifier(pplan, &lplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kFailedPrecondition,
                        "arrives over a shuffle dependency"));
  EXPECT_TRUE(ReportHas(report, StatusCode::kFailedPrecondition,
                        "is not a broadcast dependency"));
}

TEST(PhysicalPlanVerifierTest, BhjViaBroadcastDepIsClean) {
  LogicalPlan lplan = MakeLogical();
  PhysicalPlan pplan = MakePhysical();
  pplan.join_decisions[0].algo = JoinAlgo::kBroadcastHashJoin;
  pplan.stages[2].deps = {0};
  pplan.stages[2].broadcast_deps = {1};
  EXPECT_TRUE(ReportClean(RunVerifier(pplan, &lplan)));
}

TEST(PhysicalPlanVerifierTest, JoinDecisionOnNonJoinIsInvalidArgument) {
  LogicalPlan lplan = MakeLogical();
  PhysicalPlan pplan = MakePhysical();
  pplan.join_decisions[0].op_id = 0;  // a scan
  auto report = RunVerifier(pplan, &lplan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kInvalidArgument,
                        "decision references a non-join operator"));
}

}  // namespace
}  // namespace analysis
}  // namespace sparkopt
