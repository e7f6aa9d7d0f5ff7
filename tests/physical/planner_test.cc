#include "physical/physical_plan.h"

#include <gtest/gtest.h>

#include <cmath>

#include <numeric>

#include "physical/partition_runs_util.h"
#include "plan/cardinality.h"

namespace sparkopt {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

// A two-table join plan where the build side size is controlled exactly.
struct JoinFixture {
  LogicalPlan plan;
  std::vector<TableStats> catalog;
  int join_id = -1;

  explicit JoinFixture(double small_table_mb, double big_table_mb = 4096) {
    TableStats small{"small", small_table_mb * kMb / 100.0, 100, 0.0};
    TableStats big{"big", big_table_mb * kMb / 100.0, 100, 0.0};
    catalog = {small, big};
    LogicalOperator s0;
    s0.type = OpType::kScan;
    s0.table_id = 0;
    s0.out_row_bytes = 100;
    const int a = plan.AddOperator(s0);
    LogicalOperator s1 = s0;
    s1.table_id = 1;
    const int b = plan.AddOperator(s1);
    LogicalOperator j;
    j.type = OpType::kJoin;
    j.children = {a, b};
    j.cardinality_factor = 1.0;
    j.requires_shuffle = true;
    j.out_row_bytes = 100;
    join_id = plan.AddOperator(j);
    EXPECT_TRUE(plan.Build().ok());
    CboErrorModel err;
    err.sigma_per_join = 0.0;
    err.join_bias = 1.0;  // exact estimates: isolate the threshold logic
    err.filter_sigma = 0.0;
    EXPECT_TRUE(AnnotateCardinalities(catalog, err, &plan).ok());
  }

  Result<PhysicalPlan> Plan(PlanParams tp) {
    PhysicalPlanner planner(&plan, plan.DecomposeSubQueries());
    ContextParams tc = DecodeContext(DefaultSparkConfig());
    return planner.Plan(tc, {tp}, {StageParams{}},
                        CardinalitySource::kEstimated);
  }
};

TEST(JoinSelectionTest, SmallBuildSideBroadcasts) {
  JoinFixture fx(/*small_table_mb=*/5);
  PlanParams tp;
  tp.broadcast_join_threshold_mb = 10;
  tp.non_empty_partition_ratio = 0.0;
  auto pp = fx.Plan(tp);
  ASSERT_TRUE(pp.ok());
  ASSERT_EQ(pp->join_decisions.size(), 1u);
  EXPECT_EQ(pp->join_decisions[0].algo, JoinAlgo::kBroadcastHashJoin);
}

TEST(JoinSelectionTest, MediumBuildSideUsesShuffledHash) {
  JoinFixture fx(/*small_table_mb=*/50);
  PlanParams tp;
  tp.broadcast_join_threshold_mb = 10;
  tp.shuffled_hash_join_threshold_mb = 100;
  auto pp = fx.Plan(tp);
  ASSERT_TRUE(pp.ok());
  EXPECT_EQ(pp->join_decisions[0].algo, JoinAlgo::kShuffledHashJoin);
}

TEST(JoinSelectionTest, LargeBuildSideFallsBackToSortMerge) {
  JoinFixture fx(/*small_table_mb=*/500);
  PlanParams tp;
  tp.broadcast_join_threshold_mb = 10;
  tp.shuffled_hash_join_threshold_mb = 100;
  auto pp = fx.Plan(tp);
  ASSERT_TRUE(pp.ok());
  EXPECT_EQ(pp->join_decisions[0].algo, JoinAlgo::kSortMergeJoin);
}

TEST(JoinSelectionTest, NonEmptyRatioDemotesBroadcast) {
  // A ~50-row build side fills only ~5% of 1024 shuffle partitions,
  // below the 90% non-empty bar: the AQE demotion rule kicks in.
  JoinFixture fx(/*small_table_mb=*/0.005);
  PlanParams tp;
  tp.broadcast_join_threshold_mb = 10;
  tp.shuffle_partitions = 1024;
  tp.non_empty_partition_ratio = 0.9;
  auto pp = fx.Plan(tp);
  ASSERT_TRUE(pp.ok());
  EXPECT_NE(pp->join_decisions[0].algo, JoinAlgo::kBroadcastHashJoin);
}

TEST(StageFormationTest, BroadcastJoinMergesIntoProbeStage) {
  JoinFixture fx(5);
  PlanParams bhj;
  bhj.broadcast_join_threshold_mb = 10;
  bhj.non_empty_partition_ratio = 0.0;
  auto with_bhj = fx.Plan(bhj);
  PlanParams smj;
  smj.broadcast_join_threshold_mb = 0;
  auto with_smj = fx.Plan(smj);
  ASSERT_TRUE(with_bhj.ok());
  ASSERT_TRUE(with_smj.ok());
  // SMJ: 3 stages (2 scans + join). BHJ: join merged into probe scan -> 2.
  EXPECT_EQ(with_smj->stages.size(), 3u);
  EXPECT_EQ(with_bhj->stages.size(), 2u);
  // The merged stage has a broadcast dependency, not a shuffle one.
  bool found_broadcast = false;
  for (const auto& st : with_bhj->stages) {
    if (!st.broadcast_deps.empty()) {
      found_broadcast = true;
      EXPECT_GT(st.broadcast_bytes, 0.0);
    }
  }
  EXPECT_TRUE(found_broadcast);
}

TEST(StageFormationTest, ExecutionOrderRespectsDependencies) {
  JoinFixture fx(500);
  auto pp = fx.Plan(PlanParams{});
  ASSERT_TRUE(pp.ok());
  auto order = pp->ExecutionOrder();
  ASSERT_EQ(order.size(), pp->stages.size());
  std::vector<int> pos(order.size());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& st : pp->stages) {
    for (int d : st.deps) EXPECT_LT(pos[d], pos[st.id]);
    for (int d : st.broadcast_deps) EXPECT_LT(pos[d], pos[st.id]);
  }
}

TEST(StageFormationTest, RootStageDoesNotExchangeOutput) {
  JoinFixture fx(500);
  auto pp = fx.Plan(PlanParams{});
  ASSERT_TRUE(pp.ok());
  int roots = 0;
  for (const auto& st : pp->stages) {
    if (!st.exchanges_output) ++roots;
  }
  EXPECT_EQ(roots, 1);
}

TEST(PartitioningTest, ScanPartitionsFollowMaxPartitionBytes) {
  JoinFixture fx(500, /*big=*/1024);
  PlanParams tp;
  tp.max_partition_bytes_mb = 128;
  tp.file_open_cost_mb = 1;
  auto pp = fx.Plan(tp);
  ASSERT_TRUE(pp.ok());
  for (const auto& st : pp->stages) {
    if (!st.is_scan_stage) continue;
    const double expected =
        std::ceil(st.input_bytes /
                  std::min(128 * kMb,
                           std::max(1 * kMb, st.input_bytes / 64.0)));
    EXPECT_EQ(st.num_partitions, static_cast<int>(expected));
  }
}

TEST(PartitioningTest, ShuffleStageUsesShufflePartitionsThenCoalesce) {
  JoinFixture fx(500);
  PlanParams tp;
  tp.shuffle_partitions = 64;
  tp.advisory_partition_size_mb = 1e9;  // coalesce everything
  auto pp = fx.Plan(tp);
  ASSERT_TRUE(pp.ok());
  for (const auto& st : pp->stages) {
    if (st.is_scan_stage) continue;
    // All small partitions merged toward the advisory size -> few remain.
    EXPECT_LE(st.num_partitions, 64);
  }
}

TEST(PartitionSizesTest, UniformWhenNoSkew) {
  auto sizes = ExpandRuns(SkewedPartitionSizes(1000.0, 10, 0.0));
  ASSERT_EQ(sizes.size(), 10u);
  for (double s : sizes) EXPECT_NEAR(s, 100.0, 1e-9);
}

TEST(PartitionSizesTest, SkewConcentratesMass) {
  auto sizes = ExpandRuns(SkewedPartitionSizes(1000.0, 10, 0.8));
  EXPECT_GT(sizes[0], 2 * sizes[9]);
  const double total = std::accumulate(sizes.begin(), sizes.end(), 0.0);
  EXPECT_NEAR(total, 1000.0, 1e-6);
}

TEST(PartitionSizesTest, MassConservedUnderSkew) {
  for (double z : {0.0, 0.3, 0.7, 1.0}) {
    auto sizes = ExpandRuns(SkewedPartitionSizes(5e9, 37, z));
    EXPECT_NEAR(std::accumulate(sizes.begin(), sizes.end(), 0.0), 5e9,
                1e-3);
  }
}

TEST(SkewSplitTest, OversizedPartitionSplit) {
  std::vector<double> parts = {1000 * kMb, 10 * kMb, 10 * kMb, 10 * kMb,
                               10 * kMb};
  auto out = ExpandRuns(ApplySkewSplit(RunsOf(parts), /*threshold_mb=*/100,
                                       /*factor=*/5, /*advisory_mb=*/64));
  EXPECT_GT(out.size(), parts.size());
  double total_in = std::accumulate(parts.begin(), parts.end(), 0.0);
  double total_out = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(total_in, total_out, 1.0);
  for (double b : out) EXPECT_LE(b, 100 * kMb + 1);
}

TEST(SkewSplitTest, UniformPartitionsUntouched) {
  std::vector<double> parts(8, 50 * kMb);
  auto out = ExpandRuns(ApplySkewSplit(RunsOf(parts), 100, 5, 64));
  EXPECT_EQ(out, parts);
}

TEST(CoalesceTest, SmallPartitionsMerged) {
  std::vector<double> parts(16, 4 * kMb);
  auto out = ExpandRuns(ApplyCoalesce(RunsOf(parts), /*advisory_mb=*/64,
                                      /*small_factor=*/0.2,
                                      /*min_size_mb=*/1));
  EXPECT_LT(out.size(), parts.size());
  EXPECT_NEAR(std::accumulate(out.begin(), out.end(), 0.0), 64 * kMb, 1.0);
}

TEST(CoalesceTest, LargePartitionsKept) {
  std::vector<double> parts(4, 100 * kMb);
  auto out = ExpandRuns(ApplyCoalesce(RunsOf(parts), 64, 0.2, 1));
  EXPECT_EQ(out, parts);
}

TEST(CoalesceTest, NeverReturnsEmpty) {
  auto out = ExpandRuns(ApplyCoalesce({}, 64, 0.2, 1));
  EXPECT_EQ(out.size(), 1u);
}

TEST(JoinAlgoNameTest, Names) {
  EXPECT_STREQ(JoinAlgoName(JoinAlgo::kSortMergeJoin), "SMJ");
  EXPECT_STREQ(JoinAlgoName(JoinAlgo::kShuffledHashJoin), "SHJ");
  EXPECT_STREQ(JoinAlgoName(JoinAlgo::kBroadcastHashJoin), "BHJ");
}

// Property: fine-grained per-subQ theta_p with identical copies must give
// the same plan as a single shared copy.
TEST(FineGrainedConsistencyTest, IdenticalCopiesMatchShared) {
  JoinFixture fx(50);
  PhysicalPlanner planner(&fx.plan, fx.plan.DecomposeSubQueries());
  ContextParams tc = DecodeContext(DefaultSparkConfig());
  PlanParams tp;
  tp.shuffled_hash_join_threshold_mb = 100;
  const size_t m = planner.subqueries().size();
  auto shared = planner.Plan(tc, {tp}, {StageParams{}},
                             CardinalitySource::kEstimated);
  auto fine = planner.Plan(tc, std::vector<PlanParams>(m, tp),
                           std::vector<StageParams>(m, StageParams{}),
                           CardinalitySource::kEstimated);
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(fine.ok());
  ASSERT_EQ(shared->stages.size(), fine->stages.size());
  for (size_t i = 0; i < shared->stages.size(); ++i) {
    EXPECT_EQ(shared->stages[i].num_partitions,
              fine->stages[i].num_partitions);
    EXPECT_DOUBLE_EQ(shared->stages[i].cpu_work, fine->stages[i].cpu_work);
  }
}

}  // namespace
}  // namespace sparkopt
