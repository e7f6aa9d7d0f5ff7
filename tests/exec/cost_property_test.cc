/// \file cost_property_test.cc
/// \brief Randomized monotonicity/sanity properties of the task cost
/// model and the simulator — the invariants the optimizer's search
/// relies on (more data never gets cheaper, more cores never increase
/// analytical latency, cost accounting is internally consistent).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/simulator.h"
#include "model/subq_evaluator.h"
#include "physical/partition_runs_util.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

CostModelParams NoNoise() {
  CostModelParams p;
  p.noise_sigma = 0.0;
  return p;
}

QueryStage RandomStage(Rng* rng) {
  QueryStage st;
  st.id = 0;
  st.num_partitions = 1 + static_cast<int>(rng->NextBounded(512));
  st.input_bytes = rng->Uniform(1, 65536) * kMb;
  st.input_rows = st.input_bytes / 100.0;
  st.cpu_work = st.input_rows * rng->Uniform(0.2, 2.0);
  st.output_bytes = st.input_bytes * rng->Uniform(0.01, 1.0);
  st.output_rows = st.output_bytes / 100.0;
  st.is_scan_stage = rng->Bernoulli(0.4);
  if (!st.is_scan_stage) st.shuffle_read_bytes = st.input_bytes;
  st.exchanges_output = rng->Bernoulli(0.7);
  st.has_join = rng->Bernoulli(0.3);
  st.partitions = SkewedPartitionSizes(st.input_bytes, st.num_partitions,
                                       rng->Uniform(0, 0.5));
  return st;
}

ContextParams RandomContext(Rng* rng) {
  ContextParams c;
  c.executor_cores = 1 + static_cast<int>(rng->NextBounded(8));
  c.executor_instances = 2 + static_cast<int>(rng->NextBounded(15));
  c.executor_memory_gb = 1 + static_cast<int>(rng->NextBounded(32));
  c.default_parallelism = 8 + static_cast<int>(rng->NextBounded(500));
  c.reducer_max_size_in_flight_mb = rng->Uniform(12, 192);
  c.shuffle_bypass_merge_threshold =
      50 + static_cast<int>(rng->NextBounded(750));
  c.shuffle_compress = rng->Bernoulli(0.5);
  c.memory_fraction = rng->Uniform(0.4, 0.9);
  return c;
}

class CostPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
  ClusterSpec cluster_;
  TaskCostModel model_{cluster_, NoNoise()};
};

TEST_P(CostPropertyTest, TaskLatencyAlwaysPositiveAndFinite) {
  for (int trial = 0; trial < 50; ++trial) {
    auto st = RandomStage(&rng_);
    auto ctx = RandomContext(&rng_);
    const int task = static_cast<int>(rng_.NextBounded(st.num_partitions));
    const double lat =
        model_.TaskLatency(st, TaskBytes(st, task), task, ctx, 0);
    EXPECT_GT(lat, 0.0);
    EXPECT_TRUE(std::isfinite(lat));
    EXPECT_GE(model_.StageSetupLatency(st, ctx), 0.0);
    EXPECT_GE(model_.StageIoBytes(st, ctx), 0.0);
  }
}

TEST_P(CostPropertyTest, MoreMemoryNeverSlower) {
  for (int trial = 0; trial < 30; ++trial) {
    auto st = RandomStage(&rng_);
    auto ctx = RandomContext(&rng_);
    auto more = ctx;
    more.executor_memory_gb = ctx.executor_memory_gb * 2;
    EXPECT_LE(model_.TaskLatency(st, TaskBytes(st, 0), 0, more, 0),
              model_.TaskLatency(st, TaskBytes(st, 0), 0, ctx, 0) + 1e-9);
  }
}

TEST_P(CostPropertyTest, MoreInputNeverCheaper) {
  for (int trial = 0; trial < 30; ++trial) {
    auto st = RandomStage(&rng_);
    auto ctx = RandomContext(&rng_);
    auto bigger = st;
    bigger.input_bytes *= 2;
    bigger.cpu_work *= 2;
    bigger.shuffle_read_bytes *= 2;
    bigger.partitions = SkewedPartitionSizes(
        bigger.input_bytes, bigger.num_partitions, 0.0);
    st.partitions =
        SkewedPartitionSizes(st.input_bytes, st.num_partitions, 0.0);
    EXPECT_GE(model_.TaskLatency(bigger, TaskBytes(bigger, 0), 0, ctx, 0),
              model_.TaskLatency(st, TaskBytes(st, 0), 0, ctx, 0) - 1e-9);
  }
}

class SimulatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorPropertyTest, AnalyticalLatencyScalesInverselyWithCores) {
  auto catalog = TpchCatalog(10);
  auto q = *MakeTpchQuery(static_cast<int>(GetParam() % 22) + 1, &catalog);
  ClusterSpec cluster;
  SubQEvaluator eval(&q, cluster, NoNoise());
  auto conf = DefaultSparkConfig();
  const PlanParams tp = DecodePlan(conf);
  const StageParams ts = DecodeStage(conf);
  double prev = 1e300;
  for (int cores : {1, 2, 4, 8}) {
    ContextParams tc = DecodeContext(conf);
    tc.executor_cores = cores;
    tc.executor_instances = 4;
    double total = 0;
    for (int i = 0; i < eval.num_subqs(); ++i) {
      total += eval.Evaluate(i, tc, tp, ts, CardinalitySource::kTrue)
                   .analytical_latency;
    }
    EXPECT_LE(total, prev * 1.05)
        << "more cores should not increase analytical latency";
    prev = total;
  }
}

TEST_P(SimulatorPropertyTest, CostAccountingConsistent) {
  auto catalog = TpchCatalog(10);
  auto q = *MakeTpchQuery(static_cast<int>(GetParam() % 22) + 1, &catalog);
  ClusterSpec cluster;
  Simulator sim(cluster, NoNoise());
  PhysicalPlanner planner(&q.plan, q.plan.DecomposeSubQueries());
  auto conf = DefaultSparkConfig();
  const ContextParams tc = DecodeContext(conf);
  auto pp = *planner.Plan(tc, {DecodePlan(conf)}, {DecodeStage(conf)},
                          CardinalitySource::kTrue);
  auto exec = sim.RunAll(pp, tc, 1);
  // cost == CloudCost(components) exactly.
  const double expected = CloudCost(
      sim.prices(), std::min(tc.TotalCores(), cluster.TotalCores()),
      tc.executor_memory_gb * tc.executor_instances, exec.latency,
      exec.io_bytes / (1024.0 * kMb));
  EXPECT_NEAR(exec.cost, expected, 1e-12);
  // Stage spans lie within the query span.
  for (const auto& se : exec.stages) {
    EXPECT_GE(se.start, -1e-9);
    EXPECT_LE(se.end, exec.latency + 1e-9);
    EXPECT_GE(se.end, se.start);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostPropertyTest,
                         ::testing::Values(11, 22, 33, 44));
INSTANTIATE_TEST_SUITE_P(Queries, SimulatorPropertyTest,
                         ::testing::Values(0, 2, 4, 8, 16, 20));

}  // namespace
}  // namespace sparkopt
