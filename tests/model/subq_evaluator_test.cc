#include "model/subq_evaluator.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/rng.h"
#include "params/sampler.h"
#include "physical/partition_runs_util.h"
#include "physical/physical_plan.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

struct Fixture {
  std::vector<TableStats> catalog = TpchCatalog(10);
  ClusterSpec cluster;
  CostModelParams cost;
  Query q = *MakeTpchQuery(3, &catalog);
  SubQEvaluator eval{&q, cluster, cost};

  ContextParams tc = DecodeContext(DefaultSparkConfig());
  PlanParams tp = DecodePlan(DefaultSparkConfig());
  StageParams ts = DecodeStage(DefaultSparkConfig());
};

TEST(SubQEvaluatorTest, SubqueryCountMatchesPlan) {
  Fixture fx;
  EXPECT_EQ(fx.eval.num_subqs(), 5);
}

TEST(SubQEvaluatorTest, ObjectivesPositive) {
  Fixture fx;
  for (int i = 0; i < fx.eval.num_subqs(); ++i) {
    auto o = fx.eval.Evaluate(i, fx.tc, fx.tp, fx.ts,
                              CardinalitySource::kEstimated);
    EXPECT_GT(o.analytical_latency, 0.0) << "subq " << i;
    EXPECT_GT(o.cost, 0.0);
    EXPECT_GE(o.io_bytes, 0.0);
  }
}

TEST(SubQEvaluatorTest, MoreCoresReduceAnalyticalLatency) {
  Fixture fx;
  auto small = fx.tc;
  small.executor_cores = 2;
  small.executor_instances = 2;
  auto big = fx.tc;
  big.executor_cores = 8;
  big.executor_instances = 8;
  const auto o_small = fx.eval.Evaluate(0, small, fx.tp, fx.ts,
                                        CardinalitySource::kEstimated);
  const auto o_big = fx.eval.Evaluate(0, big, fx.tp, fx.ts,
                                      CardinalitySource::kEstimated);
  EXPECT_LT(o_big.analytical_latency, o_small.analytical_latency);
}

TEST(SubQEvaluatorTest, TrueVsEstimatedDiffer) {
  Fixture fx;
  // The join subQs see misestimated inputs.
  bool differs = false;
  for (int i = 0; i < fx.eval.num_subqs(); ++i) {
    const auto est = fx.eval.Evaluate(i, fx.tc, fx.tp, fx.ts,
                                      CardinalitySource::kEstimated);
    const auto truth = fx.eval.Evaluate(i, fx.tc, fx.tp, fx.ts,
                                        CardinalitySource::kTrue);
    if (est.analytical_latency != truth.analytical_latency) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(SubQEvaluatorTest, CompletedMaskRevealsTrueStats) {
  Fixture fx;
  // Completing every subQ makes the mixed source equal the true source.
  std::vector<bool> all_done(fx.eval.num_subqs(), true);
  for (int i = 0; i < fx.eval.num_subqs(); ++i) {
    const auto mixed = fx.eval.Evaluate(i, fx.tc, fx.tp, fx.ts,
                                        CardinalitySource::kEstimated,
                                        &all_done);
    const auto truth = fx.eval.Evaluate(i, fx.tc, fx.tp, fx.ts,
                                        CardinalitySource::kTrue);
    EXPECT_DOUBLE_EQ(mixed.analytical_latency, truth.analytical_latency);
  }
}

TEST(SubQEvaluatorTest, BroadcastThresholdChangesJoinCost) {
  Fixture fx;
  // Find a join subQ.
  int join_subq = -1;
  for (const auto& sq : fx.eval.subqueries()) {
    if (sq.has_join) join_subq = sq.id;
  }
  ASSERT_GE(join_subq, 0);
  auto no_bhj = fx.tp;
  no_bhj.broadcast_join_threshold_mb = 0;
  no_bhj.shuffled_hash_join_threshold_mb = 0;
  auto force_bhj = fx.tp;
  force_bhj.broadcast_join_threshold_mb = 1e6;
  force_bhj.non_empty_partition_ratio = 0.0;
  const auto smj = fx.eval.BuildStage(join_subq, fx.tc, no_bhj, fx.ts,
                                      CardinalitySource::kEstimated);
  const auto bhj = fx.eval.BuildStage(join_subq, fx.tc, force_bhj, fx.ts,
                                      CardinalitySource::kEstimated);
  EXPECT_EQ(smj.join_algo, JoinAlgo::kSortMergeJoin);
  EXPECT_EQ(bhj.join_algo, JoinAlgo::kBroadcastHashJoin);
  EXPECT_GT(bhj.broadcast_bytes, 0.0);
  EXPECT_EQ(smj.broadcast_bytes, 0.0);
}

TEST(SubQEvaluatorTest, DeterministicEvaluation) {
  Fixture fx;
  const auto a = fx.eval.Evaluate(2, fx.tc, fx.tp, fx.ts,
                                  CardinalitySource::kEstimated);
  const auto b = fx.eval.Evaluate(2, fx.tc, fx.tp, fx.ts,
                                  CardinalitySource::kEstimated);
  EXPECT_DOUBLE_EQ(a.analytical_latency, b.analytical_latency);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

// The evaluator costs each subQ as the stage the planner builds for it.
// With broadcasts off no join folds one subQ into another, so every subQ
// is its own stage, and the two must agree bit for bit on the rules they
// share: the join choice, the believed input bytes and the partition
// sequence.
TEST(SubQEvaluatorTest, StagesMatchPlannerWithoutBroadcasts) {
  const auto tpch_catalog = TpchCatalog();
  const auto tpcds_catalog = TpcdsCatalog();
  std::vector<Query> queries = TpchBenchmark(&tpch_catalog);
  for (Query& q : TpcdsBenchmark(&tpcds_catalog)) {
    queries.push_back(std::move(q));
  }
  ASSERT_EQ(queries.size(), 124u);
  Rng rng(17);
  const auto confs = SampleLatinHypercube(SparkParamSpace(), 8, &rng);
  const ClusterSpec cluster;
  const CostModelParams cost;
  size_t compared = 0;
  for (const Query& q : queries) {
    const SubQEvaluator eval(&q, cluster, cost);
    const PhysicalPlanner planner(&q.plan, eval.subqueries());
    for (size_t c = 0; c < confs.size(); ++c) {
      const ContextParams tc = DecodeContext(confs[c]);
      PlanParams tp = DecodePlan(confs[c]);
      tp.broadcast_join_threshold_mb = -1;
      const StageParams ts = DecodeStage(confs[c]);
      for (const CardinalitySource source :
           {CardinalitySource::kEstimated, CardinalitySource::kTrue}) {
        const auto plan = planner.Plan(tc, {tp}, {ts}, source);
        ASSERT_TRUE(plan.ok()) << q.name;
        ASSERT_EQ(plan->stages.size(), eval.subqueries().size()) << q.name;
        for (const QueryStage& want : plan->stages) {
          const QueryStage got =
              eval.BuildStage(want.subq_id, tc, tp, ts, source);
          const std::string where =
              q.name + " subq " + std::to_string(want.subq_id) + " conf " +
              std::to_string(c) +
              (source == CardinalitySource::kTrue ? " true" : " est");
          ASSERT_EQ(got.num_partitions, want.num_partitions) << where;
          ASSERT_EQ(ExpandRuns(got.partitions), ExpandRuns(want.partitions))
              << where;
          ASSERT_EQ(got.has_join, want.has_join) << where;
          ASSERT_EQ(got.join_algo, want.join_algo) << where;
          ASSERT_EQ(got.input_bytes, want.input_bytes) << where;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(SubQEvaluatorTest, ShufflePartitionCountRespected) {
  Fixture fx;
  int join_subq = -1;
  for (const auto& sq : fx.eval.subqueries()) {
    if (sq.has_join) join_subq = sq.id;
  }
  ASSERT_GE(join_subq, 0);
  auto tp = fx.tp;
  tp.shuffle_partitions = 32;
  tp.advisory_partition_size_mb = 0.001;  // no coalescing
  tp.broadcast_join_threshold_mb = 0;
  const auto st = fx.eval.BuildStage(join_subq, fx.tc, tp, fx.ts,
                                     CardinalitySource::kEstimated);
  EXPECT_LE(st.num_partitions, 33);
}

}  // namespace
}  // namespace sparkopt
