#include "analysis/trace_verifier.h"

#include <vector>

#include "analysis/verifier.h"
#include "exec/simulator.h"
#include "gtest/gtest.h"
#include "physical/physical_plan.h"
#include "verifier_test_util.h"

namespace sparkopt {
namespace analysis {
namespace {

constexpr int kCores = 8;

StageExecution MakeStageExec(int id, double start, double end,
                             double task_time_sum, int num_tasks,
                             int wave = 0) {
  StageExecution se;
  se.stage_id = id;
  se.subq_id = id;
  se.wave = wave;
  se.start = start;
  se.end = end;
  se.task_time_sum = task_time_sum;
  se.analytical_latency = task_time_sum / kCores;
  se.num_tasks = num_tasks;
  return se;
}

// Two sequential stages on an 8-core cluster.
QueryExecution MakeTrace() {
  QueryExecution exec;
  exec.stages.push_back(MakeStageExec(0, 0.0, 5.0, 40.0, 4));
  exec.stages.push_back(MakeStageExec(1, 5.0, 9.0, 16.0, 2));
  exec.latency = 9.0;
  exec.analytical_latency = (40.0 + 16.0) / kCores;
  exec.io_bytes = 1024.0;
  exec.cpu_hours = kCores * exec.latency / 3600.0;
  exec.mem_gb_hours = 0.1;
  exec.cost = 0.01;
  return exec;
}

VerifyReport RunVerifier(const QueryExecution& exec, int cores = kCores,
                 const PhysicalPlan* plan = nullptr) {
  ExecutionTraceVerifier v;
  VerifyInput in;
  in.execution = &exec;
  in.total_cores = cores;
  in.physical_plan = plan;
  return v.Verify(in);
}

TEST(TraceVerifierTest, CleanTracePasses) {
  EXPECT_TRUE(ReportClean(RunVerifier(MakeTrace())));
}

TEST(TraceVerifierTest, NotApplicableWithoutTrace) {
  ExecutionTraceVerifier v;
  EXPECT_FALSE(v.applicable(VerifyInput{}));
}

TEST(TraceVerifierTest, EndBeforeStartIsOutOfRange) {
  QueryExecution exec = MakeTrace();
  exec.stages[1].end = 4.0;  // starts at 5.0
  auto report = RunVerifier(exec);
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange, "precedes start"));
}

TEST(TraceVerifierTest, NegativeStartIsOutOfRange) {
  QueryExecution exec = MakeTrace();
  exec.stages[0].start = -1.0;
  auto report = RunVerifier(exec);
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange,
                        "start -1.000000 is negative or non-finite"));
}

TEST(TraceVerifierTest, ZeroTasksIsOutOfRange) {
  QueryExecution exec = MakeTrace();
  exec.stages[0].num_tasks = 0;
  auto report = RunVerifier(exec);
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange, "num_tasks 0 < 1"));
}

TEST(TraceVerifierTest, AnalyticalLatencyMismatchIsInternal) {
  QueryExecution exec = MakeTrace();
  exec.stages[0].analytical_latency = 1.0;  // should be 40 / 8 = 5
  exec.analytical_latency = 1.0 + 2.0;
  auto report = RunVerifier(exec);
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "task_time_sum / cores"));
}

TEST(TraceVerifierTest, AnalyticalCheckSkippedWithoutCores) {
  QueryExecution exec = MakeTrace();
  exec.stages[0].analytical_latency = 1.0;
  exec.stages[1].analytical_latency = 2.0;
  exec.analytical_latency = 3.0;
  // cores = 0 disables the per-stage consistency check.
  EXPECT_TRUE(ReportClean(RunVerifier(exec, /*cores=*/0)));
}

TEST(TraceVerifierTest, LatencyBeforeLastStageEndIsInternal) {
  QueryExecution exec = MakeTrace();
  exec.latency = 7.0;  // last stage ends at 9.0
  auto report = RunVerifier(exec);
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "is before the last stage end"));
}

TEST(TraceVerifierTest, AnalyticalSumMismatchIsInternal) {
  QueryExecution exec = MakeTrace();
  exec.analytical_latency = 100.0;
  auto report = RunVerifier(exec);
  EXPECT_TRUE(ReportHas(report, StatusCode::kInternal,
                        "!= sum over stages"));
}

TEST(TraceVerifierTest, NegativeCostIsOutOfRange) {
  QueryExecution exec = MakeTrace();
  exec.cost = -0.5;
  auto report = RunVerifier(exec);
  EXPECT_TRUE(ReportHas(report, StatusCode::kOutOfRange,
                        "cost -0.500000 is negative or non-finite"));
}

TEST(TraceVerifierTest, WaveOrderViolationIsFailedPrecondition) {
  QueryExecution exec = MakeTrace();
  // A wave-1 stage starting before wave 0 finished (9.0).
  exec.stages.push_back(MakeStageExec(2, 7.0, 12.0, 24.0, 3, /*wave=*/1));
  exec.latency = 12.0;
  exec.analytical_latency += 24.0 / kCores;
  auto report = RunVerifier(exec);
  EXPECT_TRUE(ReportHas(report, StatusCode::kFailedPrecondition,
                        "before an earlier wave ended"));
}

TEST(TraceVerifierTest, LaterWaveAfterEarlierWaveIsClean) {
  QueryExecution exec = MakeTrace();
  exec.stages.push_back(MakeStageExec(2, 9.0, 12.0, 24.0, 3, /*wave=*/1));
  exec.latency = 12.0;
  exec.analytical_latency += 24.0 / kCores;
  EXPECT_TRUE(ReportClean(RunVerifier(exec)));
}

TEST(TraceVerifierTest, DependencyOrderViolationIsFailedPrecondition) {
  QueryExecution exec = MakeTrace();
  // Plan: stage 1 shuffles stage 0's output in, so it may not start
  // before stage 0 ends.
  PhysicalPlan plan;
  QueryStage st0;
  st0.id = 0;
  st0.subq_id = 0;
  st0.op_ids = {0};
  st0.num_partitions = 2;
  st0.partitions = {{2, 1.0}};
  QueryStage st1 = st0;
  st1.id = 1;
  st1.subq_id = 1;
  st1.op_ids = {1};
  st1.deps = {0};
  st1.exchanges_output = false;
  plan.stages = {st0, st1};

  exec.stages[1].start = 3.0;  // stage 0 ends at 5.0
  auto report = RunVerifier(exec, kCores, &plan);
  EXPECT_TRUE(ReportHas(report, StatusCode::kFailedPrecondition,
                        "before its dependency stage 0 ended"));
}

TEST(TraceVerifierTest, PlanDependencyCheckSkippedForMultiWaveTraces) {
  // Same inversion as above, but the trace spans two waves: stage ids
  // then refer to different physical plans, so the check must not fire.
  QueryExecution exec = MakeTrace();
  PhysicalPlan plan;
  QueryStage st0;
  st0.id = 0;
  st0.subq_id = 0;
  st0.op_ids = {0};
  st0.num_partitions = 1;
  st0.partitions = {{1, 1.0}};
  QueryStage st1 = st0;
  st1.id = 1;
  st1.deps = {0};
  plan.stages = {st0, st1};

  exec.stages[1].start = 3.0;
  exec.stages[1].end = 5.0;
  exec.stages[1].wave = 1;
  auto report = RunVerifier(exec, kCores, &plan);
  EXPECT_FALSE(HasViolation(report, StatusCode::kFailedPrecondition,
                            "before its dependency"));
}

}  // namespace
}  // namespace analysis
}  // namespace sparkopt
