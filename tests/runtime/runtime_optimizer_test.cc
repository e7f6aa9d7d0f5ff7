#include "runtime/runtime_optimizer.h"

#include <gtest/gtest.h>

#include "workload/tpch.h"

namespace sparkopt {
namespace {

struct Fixture {
  std::vector<TableStats> catalog = TpchCatalog(10);
  ClusterSpec cluster;
  CostModelParams cost;
  Query q;
  SubQEvaluator eval;

  explicit Fixture(int qid = 3)
      : q(*MakeTpchQuery(qid, &catalog)), eval(&q, cluster, cost) {}
};

// ---- AggregateForSubmission ---------------------------------------------

std::vector<std::vector<double>> PerSubqConfs(
    const std::vector<SubQuery>& subqs,
    const std::vector<double>& bc_thresholds,
    const std::vector<double>& partitions) {
  std::vector<std::vector<double>> confs;
  for (size_t i = 0; i < subqs.size(); ++i) {
    auto c = DefaultSparkConfig();
    c[kBroadcastJoinThresholdMb] = bc_thresholds[i % bc_thresholds.size()];
    c[kShufflePartitions] = partitions[i % partitions.size()];
    confs.push_back(std::move(c));
  }
  return confs;
}

TEST(AggregateForSubmissionTest, BroadcastThresholdTakesJoinMinimum) {
  Fixture fx;
  const auto& subqs = fx.eval.subqueries();
  // Give every subQ a distinct threshold; join subQs carry 64 and 32.
  std::vector<std::vector<double>> confs;
  for (const auto& sq : subqs) {
    auto c = DefaultSparkConfig();
    c[kBroadcastJoinThresholdMb] = sq.has_join ? (sq.id % 2 ? 64 : 32) : 200;
    confs.push_back(std::move(c));
  }
  PlanParams tp;
  StageParams ts;
  AggregateForSubmission(confs, subqs, &tp, &ts);
  EXPECT_DOUBLE_EQ(tp.broadcast_join_threshold_mb, 32);
}

TEST(AggregateForSubmissionTest, ThresholdFlooredAtDefault) {
  Fixture fx;
  const auto& subqs = fx.eval.subqueries();
  std::vector<std::vector<double>> confs;
  for (size_t i = 0; i < subqs.size(); ++i) {
    auto c = DefaultSparkConfig();
    c[kBroadcastJoinThresholdMb] = 1;  // below the 10 MB Spark default
    confs.push_back(std::move(c));
  }
  PlanParams tp;
  StageParams ts;
  AggregateForSubmission(confs, subqs, &tp, &ts);
  EXPECT_DOUBLE_EQ(tp.broadcast_join_threshold_mb, 10);
}

TEST(AggregateForSubmissionTest, ShufflePartitionsTakeMaximum) {
  Fixture fx;
  const auto& subqs = fx.eval.subqueries();
  auto confs =
      PerSubqConfs(subqs, {10}, {64, 512, 128, 32, 256});
  PlanParams tp;
  StageParams ts;
  AggregateForSubmission(confs, subqs, &tp, &ts);
  EXPECT_EQ(tp.shuffle_partitions, 512);
}

TEST(AggregateForSubmissionTest, EmptyInputIsNoOp) {
  PlanParams tp;
  tp.shuffle_partitions = 123;
  StageParams ts;
  AggregateForSubmission({}, {}, &tp, &ts);
  EXPECT_EQ(tp.shuffle_partitions, 123);
}

TEST(AggregateForSubmissionTest, StageParamsAggregated) {
  Fixture fx;
  const auto& subqs = fx.eval.subqueries();
  std::vector<std::vector<double>> confs;
  for (size_t i = 0; i < subqs.size(); ++i) {
    auto c = DefaultSparkConfig();
    c[kRebalanceSmallFactor] = 0.3;
    confs.push_back(std::move(c));
  }
  PlanParams tp;
  StageParams ts;
  AggregateForSubmission(confs, subqs, &tp, &ts);
  EXPECT_DOUBLE_EQ(ts.rebalance_small_factor, 0.3);
}

// ---- RuntimeOptimizer hooks ----------------------------------------------

TEST(RuntimeOptimizerTest, PrunesJoinFreeCollapsedPlans) {
  Fixture fx(1);  // TPCH-Q1 has no joins
  RuntimeOptimizerOptions opts;
  RuntimeOptimizer opt(&fx.eval, opts);
  opt.set_context(DecodeContext(DefaultSparkConfig()));
  std::vector<PlanParams> theta_p = {DecodePlan(DefaultSparkConfig())};
  std::vector<bool> completed(fx.eval.num_subqs(), false);
  completed[0] = true;
  opt.OnPlanCollapsed(fx.q.plan, fx.eval.subqueries(), completed, &theta_p);
  EXPECT_EQ(opt.stats().lqp_pruned, 1);
  EXPECT_EQ(opt.stats().lqp_sent, 0);
}

TEST(RuntimeOptimizerTest, SendsWhenJoinInputsReady) {
  Fixture fx(3);
  RuntimeOptimizerOptions opts;
  RuntimeOptimizer opt(&fx.eval, opts);
  opt.set_context(DecodeContext(DefaultSparkConfig()));
  std::vector<PlanParams> theta_p = {DecodePlan(DefaultSparkConfig())};
  // Complete the scan subQs: the first join becomes actionable.
  std::vector<bool> completed(fx.eval.num_subqs(), false);
  for (const auto& sq : fx.eval.subqueries()) {
    if (sq.has_scan) completed[sq.id] = true;
  }
  opt.OnPlanCollapsed(fx.q.plan, fx.eval.subqueries(), completed, &theta_p);
  EXPECT_EQ(opt.stats().lqp_sent, 1);
  // theta_p expanded to fine-grained copies.
  EXPECT_EQ(static_cast<int>(theta_p.size()), fx.eval.num_subqs());
  EXPECT_GT(opt.overhead_seconds(), 0.0);
}

TEST(RuntimeOptimizerTest, PruningDisabledAlwaysSends) {
  Fixture fx(1);
  RuntimeOptimizerOptions opts;
  opts.enable_pruning = false;
  RuntimeOptimizer opt(&fx.eval, opts);
  opt.set_context(DecodeContext(DefaultSparkConfig()));
  std::vector<PlanParams> theta_p = {DecodePlan(DefaultSparkConfig())};
  std::vector<bool> completed(fx.eval.num_subqs(), false);
  completed[0] = true;
  opt.OnPlanCollapsed(fx.q.plan, fx.eval.subqueries(), completed, &theta_p);
  EXPECT_EQ(opt.stats().lqp_sent, 1);
}

TEST(RuntimeOptimizerTest, QsRequestsPruneScansAndSmallStages) {
  Fixture fx(3);
  RuntimeOptimizerOptions opts;
  RuntimeOptimizer opt(&fx.eval, opts);
  opt.set_context(DecodeContext(DefaultSparkConfig()));

  PhysicalPlanner planner(&fx.q.plan, fx.eval.subqueries());
  auto conf = DefaultSparkConfig();
  auto pp = planner.Plan(DecodeContext(conf), {DecodePlan(conf)},
                         {DecodeStage(conf)}, CardinalitySource::kEstimated);
  ASSERT_TRUE(pp.ok());
  std::vector<int> ready;
  for (const auto& st : pp->stages) ready.push_back(st.id);
  std::vector<StageParams> theta_s = {DecodeStage(conf)};
  opt.OnStagesReady(*pp, ready, fx.eval.subqueries(), &theta_s);
  // Scan stages must be pruned.
  EXPECT_GT(opt.stats().qs_pruned, 0);
  EXPECT_EQ(opt.stats().qs_sent + opt.stats().qs_pruned,
            static_cast<int>(ready.size()));
}

TEST(RuntimeOptimizerTest, ResolvesBitwiseIdenticalAcrossThreadCounts) {
  // The per-subQ re-solves fan out across workers; the chosen parameters
  // must not depend on the thread count.
  auto resolve = [](int threads) {
    Fixture fx(3);
    RuntimeOptimizerOptions opts;
    opts.enable_pruning = false;
    opts.num_threads = threads;
    RuntimeOptimizer opt(&fx.eval, opts);
    opt.set_context(DecodeContext(DefaultSparkConfig()));
    std::vector<PlanParams> theta_p = {DecodePlan(DefaultSparkConfig())};
    std::vector<bool> completed(fx.eval.num_subqs(), false);
    completed[0] = true;
    opt.OnPlanCollapsed(fx.q.plan, fx.eval.subqueries(), completed,
                        &theta_p);
    return theta_p;
  };
  const auto seq = resolve(1);
  const auto par = resolve(4);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].shuffle_partitions, par[i].shuffle_partitions);
    EXPECT_EQ(seq[i].broadcast_join_threshold_mb,
              par[i].broadcast_join_threshold_mb);
    EXPECT_EQ(seq[i].advisory_partition_size_mb,
              par[i].advisory_partition_size_mb);
  }
}

TEST(RequestStatsTest, PrunedFraction) {
  RequestStats s;
  s.lqp_sent = 2;
  s.lqp_pruned = 6;
  s.qs_sent = 2;
  s.qs_pruned = 10;
  EXPECT_DOUBLE_EQ(s.PrunedFraction(), 16.0 / 20.0);
  RequestStats empty;
  EXPECT_DOUBLE_EQ(empty.PrunedFraction(), 0.0);
}

}  // namespace
}  // namespace sparkopt
