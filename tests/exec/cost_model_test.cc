#include "exec/cost_model.h"

#include <gtest/gtest.h>

#include "physical/partition_runs_util.h"

namespace sparkopt {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

QueryStage MakeStage(double input_mb, int partitions,
                     bool scan_stage = false) {
  QueryStage st;
  st.id = 0;
  st.num_partitions = partitions;
  st.input_bytes = input_mb * kMb;
  st.input_rows = input_mb * 1e4;
  st.output_bytes = st.input_bytes / 2;
  st.output_rows = st.input_rows / 2;
  st.cpu_work = st.input_rows;
  st.is_scan_stage = scan_stage;
  if (!scan_stage) st.shuffle_read_bytes = st.input_bytes;
  st.partitions = SkewedPartitionSizes(st.input_bytes, partitions, 0.0);
  return st;
}

ContextParams Context(int cores = 4, int instances = 4, double mem_gb = 8) {
  ContextParams c;
  c.executor_cores = cores;
  c.executor_instances = instances;
  c.executor_memory_gb = mem_gb;
  return c;
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() {
    params_.noise_sigma = 0.0;
  }
  ClusterSpec cluster_;
  CostModelParams params_;
};

TEST_F(CostModelTest, TaskLatencyPositiveAndHasOverhead) {
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(100, 10);
  const double lat = m.TaskLatency(st, TaskBytes(st, 0), 0, Context(), 0);
  EXPECT_GT(lat, params_.task_overhead_s);
}

TEST_F(CostModelTest, BiggerPartitionTakesLonger) {
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(100, 10);
  st.partitions = SkewedPartitionSizes(st.input_bytes, 10, 0.8);
  const double first = m.TaskLatency(st, TaskBytes(st, 0), 0, Context(), 0);
  const double last = m.TaskLatency(st, TaskBytes(st, 9), 9, Context(), 0);
  EXPECT_GT(first, last);
}

TEST_F(CostModelTest, MemoryPressureCausesSpillSlowdown) {
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(4000, 2);  // 2 GB per task
  st.has_join = true;
  const double ample =
      m.TaskLatency(st, TaskBytes(st, 0), 0, Context(4, 4, 64), 0);
  const double tight =
      m.TaskLatency(st, TaskBytes(st, 0), 0, Context(4, 4, 2), 0);
  EXPECT_GT(tight, 1.5 * ample);
}

TEST_F(CostModelTest, CompressionReducesShuffleBytesTime) {
  params_.compress_ratio = 0.3;
  params_.compress_cpu_factor = 1.0;  // isolate the IO effect
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(2000, 4);
  auto on = Context();
  on.shuffle_compress = true;
  auto off = Context();
  off.shuffle_compress = false;
  EXPECT_LT(m.TaskLatency(st, TaskBytes(st, 0), 0, on, 0),
            m.TaskLatency(st, TaskBytes(st, 0), 0, off, 0));
}

TEST_F(CostModelTest, LargerInFlightBufferSpeedsShuffleRead) {
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(2000, 4);
  auto small = Context();
  small.reducer_max_size_in_flight_mb = 12;
  auto big = Context();
  big.reducer_max_size_in_flight_mb = 192;
  EXPECT_GT(m.TaskLatency(st, TaskBytes(st, 0), 0, small, 0),
            m.TaskLatency(st, TaskBytes(st, 0), 0, big, 0));
}

TEST_F(CostModelTest, BypassMergeThresholdSpeedsSmallShuffleWrites) {
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(2000, 100);
  st.exchanges_output = true;
  auto bypass = Context();
  bypass.shuffle_bypass_merge_threshold = 200;  // 100 <= 200: bypass
  auto sort = Context();
  sort.shuffle_bypass_merge_threshold = 50;     // 100 > 50: sort path
  EXPECT_LT(m.TaskLatency(st, TaskBytes(st, 0), 0, bypass, 0),
            m.TaskLatency(st, TaskBytes(st, 0), 0, sort, 0));
}

TEST_F(CostModelTest, ExtremeMemoryFractionAddsGcPressure) {
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(100, 10);
  auto mid = Context();
  mid.memory_fraction = 0.6;
  auto high = Context();
  high.memory_fraction = 0.9;
  EXPECT_LT(m.TaskLatency(st, TaskBytes(st, 0), 0, mid, 0),
            m.TaskLatency(st, TaskBytes(st, 0), 0, high, 0));
}

TEST_F(CostModelTest, NoiseIsDeterministicPerSeed) {
  params_.noise_sigma = 0.1;
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(100, 10);
  EXPECT_DOUBLE_EQ(m.TaskLatency(st, TaskBytes(st, 3), 3, Context(), 42),
                   m.TaskLatency(st, TaskBytes(st, 3), 3, Context(), 42));
  EXPECT_NE(m.TaskLatency(st, TaskBytes(st, 3), 3, Context(), 42),
            m.TaskLatency(st, TaskBytes(st, 3), 3, Context(), 43));
}

TEST_F(CostModelTest, BroadcastChargesSetupCost) {
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(100, 10);
  const double plain = m.StageSetupLatency(st, Context());
  st.broadcast_bytes = 500 * kMb;
  const double with_bc = m.StageSetupLatency(st, Context());
  EXPECT_GT(with_bc, plain + 0.1);
}

TEST_F(CostModelTest, BroadcastSetupGrowsWithInstances) {
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(100, 10);
  st.broadcast_bytes = 500 * kMb;
  EXPECT_GT(m.StageSetupLatency(st, Context(4, 16)),
            m.StageSetupLatency(st, Context(4, 2)));
}

TEST_F(CostModelTest, IoAccountsScanShuffleAndBroadcast) {
  TaskCostModel m(cluster_, params_);
  auto scan = MakeStage(100, 10, /*scan=*/true);
  scan.exchanges_output = false;
  auto ctx = Context();
  ctx.shuffle_compress = false;
  EXPECT_DOUBLE_EQ(m.StageIoBytes(scan, ctx), 100 * kMb);

  auto shuffle = MakeStage(100, 10);
  shuffle.exchanges_output = false;
  EXPECT_DOUBLE_EQ(m.StageIoBytes(shuffle, ctx), 100 * kMb);

  shuffle.broadcast_bytes = 10 * kMb;
  EXPECT_DOUBLE_EQ(m.StageIoBytes(shuffle, ctx),
                   100 * kMb + 10 * kMb * ctx.executor_instances);
}

TEST_F(CostModelTest, CompressionShrinksAccountedIo) {
  TaskCostModel m(cluster_, params_);
  auto st = MakeStage(100, 10);
  st.exchanges_output = false;
  auto on = Context();
  on.shuffle_compress = true;
  auto off = Context();
  off.shuffle_compress = false;
  EXPECT_LT(m.StageIoBytes(st, on), m.StageIoBytes(st, off));
}

TEST(CloudCostTest, LinearInResources) {
  PriceBook p;
  const double base = CloudCost(p, 8, 32, 3600, 10);
  EXPECT_DOUBLE_EQ(base, p.per_core_hour * 8 + p.per_gb_mem_hour * 32 +
                             p.per_gb_io * 10);
  EXPECT_DOUBLE_EQ(CloudCost(p, 16, 32, 3600, 10) - base,
                   p.per_core_hour * 8);
}

}  // namespace
}  // namespace sparkopt
