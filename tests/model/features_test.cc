#include "model/features.h"

#include <gtest/gtest.h>

#include "physical/partition_runs_util.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

struct Fixture {
  std::vector<TableStats> catalog = TpchCatalog(10);
  ClusterSpec cluster;
  CostModelParams cost;
  Query q = *MakeTpchQuery(3, &catalog);
  SubQEvaluator eval{&q, cluster, cost};

  QueryStage Stage(int subq) {
    auto conf = DefaultSparkConfig();
    return eval.BuildStage(subq, DecodeContext(conf), DecodePlan(conf),
                           DecodeStage(conf), CardinalitySource::kEstimated);
  }
};

TEST(PartitionStatsTest, UniformPartitionsGiveZeroRatios) {
  auto beta = PartitionDistributionStats(RunsOf({100, 100, 100, 100}));
  EXPECT_NEAR(beta[0], 0.0, 1e-12);
  EXPECT_NEAR(beta[1], 0.0, 1e-12);
  EXPECT_NEAR(beta[2], 0.0, 1e-12);
}

TEST(PartitionStatsTest, SkewedPartitionsGivePositiveRatios) {
  auto beta = PartitionDistributionStats(RunsOf({400, 100, 100, 100}));
  EXPECT_GT(beta[0], 0.0);   // sigma/mu
  EXPECT_GT(beta[1], 0.5);   // (max-mu)/mu = (400-175)/175
  EXPECT_NEAR(beta[1], (400.0 - 175) / 175, 1e-9);
  EXPECT_NEAR(beta[2], 300.0 / 175, 1e-9);
}

TEST(PartitionStatsTest, EmptyPartitionsSafe) {
  auto beta = PartitionDistributionStats({});
  EXPECT_EQ(beta.size(), static_cast<size_t>(FeatureLayout::kBeta));
}

TEST(FeatureTest, TotalDimensionConsistent) {
  Fixture fx;
  auto st = fx.Stage(0);
  auto f = StageFeatures(fx.q.plan, st, DefaultSparkConfig(), false, {}, {},
                         false);
  EXPECT_EQ(f.size(), static_cast<size_t>(FeatureLayout::Total()));
}

TEST(FeatureTest, OperatorHistogramCountsOps) {
  Fixture fx;
  auto st = fx.Stage(0);
  auto f = StageFeatures(fx.q.plan, st, DefaultSparkConfig(), false, {}, {},
                         false);
  double total = 0;
  for (int i = 0; i < FeatureLayout::kOpHistogram; ++i) total += f[i];
  EXPECT_DOUBLE_EQ(total, static_cast<double>(st.op_ids.size()));
}

TEST(FeatureTest, DropThetaPZeroesPlanBlock) {
  Fixture fx;
  auto st = fx.Stage(0);
  auto conf = DefaultSparkConfig();
  conf[kShufflePartitions] = 777;
  auto with_p = StageFeatures(fx.q.plan, st, conf, false, {}, {}, false);
  auto without_p = StageFeatures(fx.q.plan, st, conf, false, {}, {}, true);
  const int theta_off = FeatureLayout::kOpHistogram +
                        FeatureLayout::kWlEmbedding +
                        FeatureLayout::kPredicateHash +
                        FeatureLayout::kCardinality + FeatureLayout::kAlpha +
                        FeatureLayout::kBeta + FeatureLayout::kGamma;
  // Plan params sit at indices 8..16 of the theta block.
  for (int i = 8; i <= 16; ++i) {
    EXPECT_DOUBLE_EQ(without_p[theta_off + i], 0.0);
  }
  // Context params preserved.
  EXPECT_EQ(with_p[theta_off + 0], without_p[theta_off + 0]);
}

TEST(FeatureTest, BetaAndGammaChannelsCopied) {
  Fixture fx;
  auto st = fx.Stage(0);
  std::vector<double> beta = {0.5, 1.5, 2.5};
  std::vector<double> gamma = {1, 2, 3};
  auto f = StageFeatures(fx.q.plan, st, DefaultSparkConfig(), true, beta,
                         gamma, false);
  const int beta_off = FeatureLayout::kOpHistogram +
                       FeatureLayout::kWlEmbedding +
                       FeatureLayout::kPredicateHash +
                       FeatureLayout::kCardinality + FeatureLayout::kAlpha;
  EXPECT_DOUBLE_EQ(f[beta_off + 0], 0.5);
  EXPECT_DOUBLE_EQ(f[beta_off + 1], 1.5);
  EXPECT_DOUBLE_EQ(f[beta_off + 2], 2.5);
}

TEST(FeatureTest, DifferentSubqueriesDifferentEmbeddings) {
  Fixture fx;
  auto f0 = StageFeatures(fx.q.plan, fx.Stage(0), DefaultSparkConfig(),
                          false, {}, {}, false);
  auto f3 = StageFeatures(fx.q.plan, fx.Stage(3), DefaultSparkConfig(),
                          false, {}, {}, false);
  EXPECT_NE(f0, f3);
}

TEST(FeatureTest, ConfigurationChangesThetaBlockOnly) {
  Fixture fx;
  auto st = fx.Stage(0);
  auto conf1 = DefaultSparkConfig();
  auto conf2 = conf1;
  conf2[kMemoryFraction] = 0.9;
  auto f1 = StageFeatures(fx.q.plan, st, conf1, false, {}, {}, false);
  auto f2 = StageFeatures(fx.q.plan, st, conf2, false, {}, {}, false);
  EXPECT_NE(f1, f2);
  // Histogram block unchanged.
  for (int i = 0; i < FeatureLayout::kOpHistogram; ++i) {
    EXPECT_DOUBLE_EQ(f1[i], f2[i]);
  }
}

TEST(FeatureTest, CollapsedPlanFeaturesPoolAndCount) {
  Fixture fx;
  std::vector<QueryStage> remaining = {fx.Stage(0), fx.Stage(1)};
  auto f = CollapsedPlanFeatures(fx.q.plan, remaining, DefaultSparkConfig(),
                                 {});
  EXPECT_EQ(f.size(), static_cast<size_t>(FeatureLayout::Total() + 1));
  EXPECT_DOUBLE_EQ(f.back(), 2.0);
}

TEST(FeatureTest, CollapsedPlanEmptySafe) {
  Fixture fx;
  auto f = CollapsedPlanFeatures(fx.q.plan, {}, DefaultSparkConfig(), {});
  EXPECT_DOUBLE_EQ(f.back(), 0.0);
}

TEST(ContentionStatsTest, LogTransformed) {
  StageExecution se;
  se.parallel_running_tasks = 0;
  se.parallel_waiting_tasks = 0;
  se.finished_task_mean_s = 0;
  auto g = ContentionStats(se);
  EXPECT_EQ(g.size(), static_cast<size_t>(FeatureLayout::kGamma));
  for (double v : g) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace sparkopt
