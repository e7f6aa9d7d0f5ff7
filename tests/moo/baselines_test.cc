#include "moo/baselines.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "params/spark_params.h"

namespace sparkopt {
namespace {

// Toy separable model with a known convex tradeoff: latency decreases and
// cost increases with the (normalized) executor-core count. The true
// Pareto front is the whole diagonal.
class ToyModel : public SubQObjectiveModel {
 public:
  explicit ToyModel(int subqs) : m_(subqs) {}
  int num_subqs() const override { return m_; }
  ObjectiveVector Evaluate(int subq,
                           const std::vector<double>& conf) const override {
    ++evals_;
    const auto unit = SparkParamSpace().Normalize(conf);
    // Resource knob: cores+instances; per-subQ plan knob adds curvature.
    const double r = 0.5 * (unit[kExecutorCores] + unit[kExecutorInstances]);
    const double p = unit[kShufflePartitions];
    const double lat =
        (1.5 - r) * (1.0 + 0.5 * (p - 0.5) * (p - 0.5)) + 0.1 * subq;
    const double cost = 0.2 + r + 0.05 * subq;
    return {lat, cost};
  }
  size_t eval_count() const override { return evals_; }

 private:
  int m_;
  mutable size_t evals_ = 0;
};

TEST(FlatProblemTest, DimsByGranularity) {
  ToyModel model(4);
  FlatProblem query_level(&model, false);
  FlatProblem fine(&model, true);
  EXPECT_EQ(query_level.dims(), 8u + 11u);
  EXPECT_EQ(fine.dims(), 8u + 4u * 11u);
}

TEST(FlatProblemTest, DecodeSharesThetaC) {
  ToyModel model(3);
  FlatProblem fine(&model, true);
  std::vector<double> x(fine.dims(), 0.25);
  auto sol = fine.Decode(x);
  ASSERT_EQ(sol.per_subq_conf.size(), 3u);
  for (const auto& c : sol.per_subq_conf) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(c[j], sol.per_subq_conf[0][j]) << "theta_c differs";
    }
  }
}

TEST(FlatProblemTest, EvalSumsSubqueries) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  std::vector<double> x(flat.dims(), 0.5);
  auto f = flat.Eval(x);
  auto sol = flat.Decode(x);
  auto f0 = model.Evaluate(0, sol.conf);
  auto f1 = model.Evaluate(1, sol.conf);
  EXPECT_NEAR(f[0], f0[0] + f1[0], 1e-12);
  EXPECT_NEAR(f[1], f0[1] + f1[1], 1e-12);
}

TEST(WeightedSumTest, ReturnsNonDominatedSet) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  WsOptions opts;
  opts.samples = 2000;
  auto r = SolveWeightedSum(flat, flat, opts);
  EXPECT_FALSE(r.pareto.empty());
  EXPECT_LE(r.pareto.size(), 11u);
  EXPECT_EQ(r.evaluations, 2000u);
  for (size_t i = 0; i < r.pareto.size(); ++i) {
    for (size_t j = 0; j < r.pareto.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          Dominates(r.pareto[j].objectives, r.pareto[i].objectives));
    }
  }
}

TEST(WeightedSumTest, Deterministic) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  WsOptions opts;
  opts.samples = 500;
  opts.seed = 4;
  auto a = SolveWeightedSum(flat, flat, opts);
  auto b = SolveWeightedSum(flat, flat, opts);
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].objectives, b.pareto[i].objectives);
  }
}

TEST(WeightedSumTest, NoSampleYieldsEmptyFront) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  WsOptions opts;
  for (const int samples : {0, -1}) {
    opts.samples = samples;
    const auto r = SolveWeightedSum(flat, flat, opts);
    EXPECT_TRUE(r.pareto.empty()) << samples << " samples";
    EXPECT_EQ(r.evaluations, 0u);
  }
}

TEST(SoFixedWeightsTest, SingleSolutionTracksPreference) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  auto fast = SolveSoFixedWeights(flat, flat, {1.0, 0.0}, 2000, 1);
  auto cheap = SolveSoFixedWeights(flat, flat, {0.0, 1.0}, 2000, 1);
  ASSERT_EQ(fast.pareto.size(), 1u);
  ASSERT_EQ(cheap.pareto.size(), 1u);
  EXPECT_LT(fast.pareto[0].objectives[0], cheap.pareto[0].objectives[0]);
  EXPECT_GT(fast.pareto[0].objectives[1], cheap.pareto[0].objectives[1]);
}

// With no sample drawn, or no finite score to rank them by, there is no
// winner: the front is empty, not a read of an empty sample.
TEST(SoFixedWeightsTest, NoWinnerYieldsEmptyFront) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [weights, samples] :
       std::vector<std::pair<std::vector<double>, int>>{
           {{0.5, 0.5}, 0}, {{nan, 1.0}, 50}, {{inf, 1.0}, 50}}) {
    EXPECT_TRUE(
        SolveSoFixedWeights(flat, flat, weights, samples, 1).pareto.empty())
        << weights[0] << ", " << samples << " samples";
  }
}

TEST(EvoTest, RespectsEvaluationBudget) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  EvoOptions opts;
  opts.population = 20;
  opts.max_evaluations = 100;
  auto r = SolveEvo(flat, flat, opts);
  EXPECT_LE(r.evaluations, 100u);
  EXPECT_FALSE(r.pareto.empty());
}

TEST(EvoTest, FrontIsNonDominated) {
  ToyModel model(3);
  FlatProblem flat(&model, true);
  EvoOptions opts;
  auto r = SolveEvo(flat, flat, opts);
  for (size_t i = 0; i < r.pareto.size(); ++i) {
    for (size_t j = 0; j < r.pareto.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(
            Dominates(r.pareto[j].objectives, r.pareto[i].objectives));
      }
    }
  }
}

TEST(EvoTest, MoreEvaluationsImproveHypervolume) {
  ToyModel model(3);
  FlatProblem flat(&model, true);
  EvoOptions small;
  small.max_evaluations = 150;
  EvoOptions big;
  big.max_evaluations = 1500;
  auto rs = SolveEvo(flat, flat, small);
  auto rb = SolveEvo(flat, flat, big);
  ObjectiveVector ref = {10, 10};
  std::vector<ObjectiveVector> fs_s, fs_b;
  for (auto& s : rs.pareto) fs_s.push_back(s.objectives);
  for (auto& s : rb.pareto) fs_b.push_back(s.objectives);
  EXPECT_GE(Hypervolume2D(fs_b, ref), Hypervolume2D(fs_s, ref) - 1e-6);
}

TEST(PfTest, FindsExtremesAndMidpoints) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  PfOptions opts;
  opts.max_points = 8;
  auto r = SolveProgressiveFrontier(flat, flat, opts);
  EXPECT_GE(r.pareto.size(), 2u);
  // The front spans a real latency range (both extremes present).
  double lat_min = 1e300, lat_max = -1e300;
  for (const auto& s : r.pareto) {
    lat_min = std::min(lat_min, s.objectives[0]);
    lat_max = std::max(lat_max, s.objectives[0]);
  }
  EXPECT_GT(lat_max - lat_min, 0.1);
}

TEST(PfTest, FrontIsNonDominated) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  PfOptions opts;
  auto r = SolveProgressiveFrontier(flat, flat, opts);
  for (size_t i = 0; i < r.pareto.size(); ++i) {
    for (size_t j = 0; j < r.pareto.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(
            Dominates(r.pareto[j].objectives, r.pareto[i].objectives));
      }
    }
  }
}

TEST(RecommendTest, WunIndexWithinRange) {
  ToyModel model(2);
  FlatProblem flat(&model, false);
  WsOptions opts;
  opts.samples = 1000;
  auto r = SolveWeightedSum(flat, flat, opts);
  const size_t pick_fast = r.Recommend({0.95, 0.05});
  const size_t pick_cheap = r.Recommend({0.05, 0.95});
  ASSERT_LT(pick_fast, r.pareto.size());
  ASSERT_LT(pick_cheap, r.pareto.size());
  // A latency-heavy preference never picks a slower solution than a
  // cost-heavy preference does.
  EXPECT_LE(r.pareto[pick_fast].objectives[0],
            r.pareto[pick_cheap].objectives[0] + 1e-9);
}

}  // namespace
}  // namespace sparkopt
