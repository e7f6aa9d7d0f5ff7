#include "exec/simulator.h"

#include <gtest/gtest.h>

#include "plan/cardinality.h"

namespace sparkopt {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

// Hand-built two-stage physical plan: a scan feeding an aggregate.
PhysicalPlan TwoStagePlan() {
  PhysicalPlan pp;
  QueryStage scan;
  scan.id = 0;
  scan.subq_id = 0;
  scan.is_scan_stage = true;
  scan.num_partitions = 8;
  scan.input_bytes = 800 * kMb;
  scan.input_rows = 8e6;
  scan.cpu_work = 8e6;
  scan.output_bytes = 400 * kMb;
  scan.output_rows = 4e6;
  scan.partitions = SkewedPartitionSizes(scan.input_bytes, 8, 0.0);
  scan.exchanges_output = true;
  pp.stages.push_back(scan);

  QueryStage agg;
  agg.id = 1;
  agg.subq_id = 1;
  agg.deps = {0};
  agg.num_partitions = 4;
  agg.input_bytes = 400 * kMb;
  agg.input_rows = 4e6;
  agg.shuffle_read_bytes = 400 * kMb;
  agg.cpu_work = 4e6;
  agg.output_bytes = 1 * kMb;
  agg.output_rows = 100;
  agg.partitions = SkewedPartitionSizes(agg.input_bytes, 4, 0.0);
  agg.exchanges_output = false;
  pp.stages.push_back(agg);
  return pp;
}

ContextParams Ctx(int cores = 4, int instances = 4) {
  ContextParams c;
  c.executor_cores = cores;
  c.executor_instances = instances;
  c.executor_memory_gb = 16;
  return c;
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() : sim_(cluster_, NoNoise()) {}
  static CostModelParams NoNoise() {
    CostModelParams p;
    p.noise_sigma = 0.0;
    return p;
  }
  ClusterSpec cluster_;
  Simulator sim_;
};

TEST_F(SimulatorTest, DependentStageStartsAfterDependency) {
  auto pp = TwoStagePlan();
  auto exec = sim_.RunAll(pp, Ctx(), 1);
  ASSERT_EQ(exec.stages.size(), 2u);
  const auto& scan = exec.stages[0];
  const auto& agg = exec.stages[1];
  EXPECT_GE(agg.start, scan.end - 1e-9);
  EXPECT_DOUBLE_EQ(exec.latency, agg.end);
}

TEST_F(SimulatorTest, AnalyticalLatencyIsTaskSumOverCores) {
  auto pp = TwoStagePlan();
  auto exec = sim_.RunAll(pp, Ctx(4, 4), 1);
  for (const auto& se : exec.stages) {
    EXPECT_NEAR(se.analytical_latency, se.task_time_sum / 16.0, 1e-9);
  }
  EXPECT_NEAR(exec.analytical_latency,
              exec.stages[0].analytical_latency +
                  exec.stages[1].analytical_latency,
              1e-9);
}

TEST_F(SimulatorTest, MoreCoresReduceLatency) {
  auto pp = TwoStagePlan();
  const double small = sim_.RunAll(pp, Ctx(2, 2), 1).latency;
  const double big = sim_.RunAll(pp, Ctx(8, 8), 1).latency;
  EXPECT_LT(big, small);
}

TEST_F(SimulatorTest, DeterministicGivenSeed) {
  auto pp = TwoStagePlan();
  CostModelParams noisy;
  noisy.noise_sigma = 0.05;
  Simulator sim(cluster_, noisy);
  EXPECT_DOUBLE_EQ(sim.RunAll(pp, Ctx(), 7).latency,
                   sim.RunAll(pp, Ctx(), 7).latency);
  EXPECT_NE(sim.RunAll(pp, Ctx(), 7).latency,
            sim.RunAll(pp, Ctx(), 8).latency);
}

TEST_F(SimulatorTest, MakespanAtLeastCriticalPath) {
  auto pp = TwoStagePlan();
  auto exec = sim_.RunAll(pp, Ctx(), 1);
  // Makespan >= analytical latency (work conservation).
  EXPECT_GE(exec.latency, exec.analytical_latency - 1e-9);
}

TEST_F(SimulatorTest, SubsetRunsOnlyRequestedStages) {
  auto pp = TwoStagePlan();
  auto exec = sim_.RunStages(pp, {0}, Ctx(), 1);
  ASSERT_EQ(exec.stages.size(), 1u);
  EXPECT_EQ(exec.stages[0].stage_id, 0);
}

TEST_F(SimulatorTest, CostFieldsPopulated) {
  auto pp = TwoStagePlan();
  auto exec = sim_.RunAll(pp, Ctx(), 1);
  EXPECT_GT(exec.cost, 0.0);
  EXPECT_GT(exec.cpu_hours, 0.0);
  EXPECT_GT(exec.mem_gb_hours, 0.0);
  EXPECT_GT(exec.io_bytes, 0.0);
}

TEST_F(SimulatorTest, ParallelIndependentStagesShareCores) {
  // Two independent scans; with enough cores they overlap, so the
  // makespan is far below the serial sum.
  PhysicalPlan pp;
  for (int i = 0; i < 2; ++i) {
    QueryStage st;
    st.id = i;
    st.subq_id = i;
    st.is_scan_stage = true;
    st.num_partitions = 8;
    st.input_bytes = 400 * kMb;
    st.input_rows = 4e6;
    st.cpu_work = 4e6;
    st.output_bytes = 1 * kMb;
    st.partitions = SkewedPartitionSizes(st.input_bytes, 8, 0.0);
    st.exchanges_output = false;
    pp.stages.push_back(st);
  }
  auto exec = sim_.RunAll(pp, Ctx(8, 4), 1);
  const double serial =
      exec.stages[0].task_time_sum + exec.stages[1].task_time_sum;
  EXPECT_LT(exec.latency, 0.8 * serial);
}

TEST_F(SimulatorTest, ContentionFeaturesObservedForLaterStages) {
  auto pp = TwoStagePlan();
  auto exec = sim_.RunAll(pp, Ctx(), 1);
  // The aggregate starts after scan tasks finished; its gamma vector
  // reflects observed task history.
  EXPECT_GT(exec.stages[1].finished_task_mean_s, 0.0);
}

TEST_F(SimulatorTest, TotalCoresCappedByCluster) {
  auto pp = TwoStagePlan();
  // Request far more executors than the cluster has.
  auto huge = Ctx(8, 1000);
  auto exec = sim_.RunAll(pp, huge, 1);
  // cpu_hours uses the capped core count.
  const double capped_cores = cluster_.TotalCores();
  EXPECT_NEAR(exec.cpu_hours, capped_cores * exec.latency / 3600.0, 1e-9);
}

}  // namespace
}  // namespace sparkopt
