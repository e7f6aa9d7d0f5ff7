#include "common/pareto.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/pareto_flat.h"
#include "common/rng.h"

namespace sparkopt {
namespace {

TEST(DominatesTest, StrictDominance) {
  EXPECT_TRUE(Dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(Dominates({1.0, 2.0}, {2.0, 2.0}));
  EXPECT_TRUE(Dominates({1.0, 2.0}, {1.0, 3.0}));
}

TEST(DominatesTest, EqualPointsDoNotDominate) {
  EXPECT_FALSE(Dominates({1.0, 2.0}, {1.0, 2.0}));
}

TEST(DominatesTest, IncomparablePoints) {
  EXPECT_FALSE(Dominates({1.0, 3.0}, {2.0, 2.0}));
  EXPECT_FALSE(Dominates({2.0, 2.0}, {1.0, 3.0}));
}

TEST(DominatesTest, ThreeObjectives) {
  EXPECT_TRUE(Dominates({1, 1, 1}, {1, 1, 2}));
  EXPECT_FALSE(Dominates({1, 1, 2}, {1, 2, 1}));
}

TEST(ParetoIndicesTest, SimpleFront2D) {
  std::vector<ObjectiveVector> pts = {
      {1, 5}, {2, 3}, {3, 4}, {4, 1}, {5, 5}};
  auto keep = ParetoIndices(pts);
  EXPECT_EQ(keep, (std::vector<size_t>{0, 1, 3}));
}

TEST(ParetoIndicesTest, EmptyInput) {
  EXPECT_TRUE(ParetoIndices({}).empty());
}

TEST(ParetoIndicesTest, SinglePoint) {
  EXPECT_EQ(ParetoIndices({{1.0, 2.0}}).size(), 1u);
}

TEST(ParetoIndicesTest, AllIdenticalPointsKept) {
  std::vector<ObjectiveVector> pts(4, {1.0, 1.0});
  EXPECT_EQ(ParetoIndices(pts).size(), 4u);
}

TEST(ParetoIndicesTest, DominatedDuplicateRemoved) {
  std::vector<ObjectiveVector> pts = {{1, 1}, {2, 2}, {2, 2}};
  EXPECT_EQ(ParetoIndices(pts).size(), 1u);
}

TEST(ParetoIndicesTest, ThreeObjectiveFront) {
  std::vector<ObjectiveVector> pts = {
      {1, 2, 3}, {3, 2, 1}, {2, 2, 2}, {3, 3, 3}, {1, 1, 4}};
  auto keep = ParetoIndices(pts);
  // {3,3,3} is dominated by {2,2,2}; the rest are incomparable.
  EXPECT_EQ(keep, (std::vector<size_t>{0, 1, 2, 4}));
}

// Nothing produces more than 3 objectives, so the Pareto primitives
// reject any other count instead of carrying a k-D fallback.
TEST(ParetoIndicesDeathTest, FourObjectivesAbort) {
  const std::vector<ObjectiveVector> pts = {{1, 2, 3, 4}, {4, 3, 2, 1}};
  EXPECT_DEATH(ParetoIndices(pts), "2 or 3 objectives, got 4");
}

// Property: no kept point is dominated by any input point, and every
// dropped point is dominated by some kept point.
class ParetoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParetoPropertyTest, FilterIsSoundAndComplete) {
  Rng rng(GetParam());
  const int n = 50 + static_cast<int>(rng.NextBounded(150));
  const int k = 2 + static_cast<int>(rng.NextBounded(2));
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(k));
  for (auto& p : pts) {
    for (auto& v : p) v = std::floor(rng.Uniform(0, 10));
  }
  auto keep = ParetoIndices(pts);
  std::vector<bool> kept(n, false);
  for (size_t i : keep) kept[i] = true;

  for (size_t i : keep) {
    for (const auto& q : pts) {
      EXPECT_FALSE(Dominates(q, pts[i]))
          << "kept point is dominated (seed " << GetParam() << ")";
    }
  }
  for (int i = 0; i < n; ++i) {
    if (kept[i]) continue;
    bool dominated_by_kept = false;
    bool duplicate_of_kept = false;
    for (size_t j : keep) {
      if (Dominates(pts[j], pts[i])) dominated_by_kept = true;
      if (pts[j] == pts[i]) duplicate_of_kept = true;
    }
    EXPECT_TRUE(dominated_by_kept || duplicate_of_kept)
        << "dropped point " << i << " is not dominated (seed "
        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(Hypervolume2DTest, SinglePoint) {
  EXPECT_DOUBLE_EQ(Hypervolume2D({{1, 1}}, {3, 3}), 4.0);
}

TEST(Hypervolume2DTest, TwoPointStaircase) {
  // (1,2) and (2,1) vs ref (3,3): area = 2*1 + 1*... staircase = 3.
  EXPECT_DOUBLE_EQ(Hypervolume2D({{1, 2}, {2, 1}}, {3, 3}), 3.0);
}

TEST(Hypervolume2DTest, PointOutsideRefIgnored) {
  EXPECT_DOUBLE_EQ(Hypervolume2D({{4, 4}}, {3, 3}), 0.0);
}

TEST(Hypervolume2DTest, DominatedPointDoesNotChangeVolume) {
  const double a = Hypervolume2D({{1, 2}, {2, 1}}, {3, 3});
  const double b = Hypervolume2D({{1, 2}, {2, 1}, {2.5, 2.5}}, {3, 3});
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Hypervolume2DTest, EmptyFrontIsZero) {
  EXPECT_DOUBLE_EQ(Hypervolume2D({}, {1, 1}), 0.0);
}

TEST(Hypervolume2DTest, MorePointsNeverReduceVolume) {
  Rng rng(99);
  std::vector<ObjectiveVector> pts;
  double last = 0.0;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    const double hv = Hypervolume2D(pts, {1.2, 1.2});
    EXPECT_GE(hv, last - 1e-12);
    last = hv;
  }
}

TEST(WunTest, PrefersLatencyWithLatencyHeavyWeights) {
  // Front: fast-expensive vs slow-cheap.
  std::vector<ObjectiveVector> front = {{1.0, 10.0}, {10.0, 1.0}};
  EXPECT_EQ(WeightedUtopiaNearest(front, {0.9, 0.1}), 0u);
  EXPECT_EQ(WeightedUtopiaNearest(front, {0.1, 0.9}), 1u);
}

TEST(WunTest, BalancedWeightsPickKnee) {
  std::vector<ObjectiveVector> front = {
      {0.0, 1.0}, {0.1, 0.1}, {1.0, 0.0}};
  EXPECT_EQ(WeightedUtopiaNearest(front, {0.5, 0.5}), 1u);
}

TEST(WunTest, EmptyFront) {
  EXPECT_EQ(WeightedUtopiaNearest({}, {0.5, 0.5}), SIZE_MAX);
}

TEST(WunTest, SinglePointAlwaysChosen) {
  EXPECT_EQ(WeightedUtopiaNearest({{5, 5}}, {0.9, 0.1}), 0u);
}

TEST(MergeFrontsTest, SumsObjectives) {
  Front2 a, b, merged;
  a.Append(1, 2, 0);
  b.Append(10, 20, 0);
  ParetoScratch scratch;
  FlatMerge2(a, b, &merged, &scratch, /*cap=*/0);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.x[0], 11);
  EXPECT_EQ(merged.y[0], 22);
  ASSERT_EQ(scratch.pairs.size(), 1u);
  EXPECT_EQ(scratch.pairs[0].i, 0u);
  EXPECT_EQ(scratch.pairs[0].j, 0u);
}

// Property (Proposition B.1): Pf(Pf(F) ⊕ Pf(G)) == Pf(F x G). Merging the
// children's Pareto fronts loses no query-level Pareto point.
class MinkowskiLawTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinkowskiLawTest, MergeOfFrontsEqualsFrontOfProduct) {
  Rng rng(GetParam());
  auto random_set = [&](int n) {
    std::vector<ObjectiveVector> pts(n, ObjectiveVector(2));
    for (auto& p : pts) {
      p[0] = std::floor(rng.Uniform(0, 20));
      p[1] = std::floor(rng.Uniform(0, 20));
    }
    return pts;
  };
  const auto f = random_set(12);
  const auto g = random_set(14);

  // Right side: Pareto front of the full product.
  std::vector<ObjectiveVector> product;
  for (const auto& a : f) {
    for (const auto& b : g) {
      product.push_back({a[0] + b[0], a[1] + b[1]});
    }
  }
  auto rhs = ParetoFilter(product);
  std::sort(rhs.begin(), rhs.end());
  rhs.erase(std::unique(rhs.begin(), rhs.end()), rhs.end());

  // Left side: merge of the two children's fronts.
  Front2 fa, fb, merged;
  for (const auto& p : ParetoFilter(f)) fa.Append(p[0], p[1], 0);
  for (const auto& p : ParetoFilter(g)) fb.Append(p[0], p[1], 0);
  ParetoScratch scratch;
  FlatMerge2(fa, fb, &merged, &scratch, /*cap=*/0);
  std::vector<ObjectiveVector> lhs;
  for (size_t p = 0; p < merged.size(); ++p) {
    lhs.push_back({merged.x[p], merged.y[p]});
  }
  std::sort(lhs.begin(), lhs.end());
  lhs.erase(std::unique(lhs.begin(), lhs.end()), lhs.end());

  EXPECT_EQ(lhs, rhs) << "Minkowski merge law violated (seed "
                      << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinkowskiLawTest,
                         ::testing::Values(7, 11, 17, 23, 29, 41, 53, 71));

}  // namespace
}  // namespace sparkopt
