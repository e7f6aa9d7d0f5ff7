#include "common/pareto_flat.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/pareto.h"
#include "common/rng.h"

// Property suite for the flat Pareto kernel: every primitive must be
// bitwise identical — same points, same (i, j) pairs, same stable order
// — to the naive AoS formulation it replaced. Random fronts are drawn
// with floored coordinates so duplicate points and ties occur constantly.

namespace sparkopt {
namespace {

std::vector<ObjectiveVector> RandomPoints(Rng* rng, int n, bool ties) {
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(2));
  for (auto& p : pts) {
    p[0] = ties ? std::floor(rng->Uniform(0, 12)) : rng->Uniform(0, 12);
    p[1] = ties ? std::floor(rng->Uniform(0, 12)) : rng->Uniform(0, 12);
  }
  return pts;
}

// O(n^2) dominance reference: kept iff no other point strictly dominates.
std::vector<size_t> ReferenceKept(const std::vector<ObjectiveVector>& pts) {
  std::vector<size_t> kept;
  for (size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < pts.size() && !dominated; ++j) {
      dominated = j != i && Dominates(pts[j], pts[i]);
    }
    if (!dominated) kept.push_back(i);
  }
  return kept;
}

// The pre-kernel Hypervolume2D implementation, kept verbatim as the
// bitwise oracle (filter + sort + dedup, then the staircase sum).
double ReferenceHypervolume(const std::vector<ObjectiveVector>& front,
                            const ObjectiveVector& ref) {
  if (front.empty()) return 0.0;
  auto nd_idx = ParetoIndices(front);
  std::vector<ObjectiveVector> nd;
  for (size_t i : nd_idx) nd.push_back(front[i]);
  std::sort(nd.begin(), nd.end());
  nd.erase(std::unique(nd.begin(), nd.end()), nd.end());
  double hv = 0.0;
  double last_y = ref[1];
  for (const auto& p : nd) {
    if (p[0] >= ref[0]) break;
    const double clipped_y = std::min(p[1], last_y);
    if (clipped_y < last_y) {
      hv += (ref[0] - p[0]) * (last_y - clipped_y);
      last_y = clipped_y;
    }
  }
  return hv;
}

Front2 ToFront2(const std::vector<ObjectiveVector>& pts) {
  Front2 f;
  for (size_t i = 0; i < pts.size(); ++i) f.Append(pts[i][0], pts[i][1], i);
  return f;
}

class FlatKernelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatKernelPropertyTest, ParetoPositionsMatchReference) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.NextBounded(40));
    const auto pts = RandomPoints(&rng, n, round % 2 == 0);
    std::vector<double> x(n), y(n);
    for (int i = 0; i < n; ++i) {
      x[i] = pts[i][0];
      y[i] = pts[i][1];
    }
    std::vector<uint32_t> kept;
    FlatParetoPositions(x.data(), y.data(), n, &kept, &scratch);
    const std::vector<size_t> got(kept.begin(), kept.end());
    EXPECT_EQ(got, ReferenceKept(pts)) << "seed " << GetParam();
    // The shim must agree too.
    EXPECT_EQ(ParetoIndices(pts), ReferenceKept(pts));
  }
  // HMOOC's batch shapes: up to 128 rows repeating one or two distinct
  // vectors (on the analytic model a batch usually holds one), with
  // coordinates from a set that includes +-inf and +-0.0.
  const double kInf = std::numeric_limits<double>::infinity();
  const double kValues[] = {-kInf, -1.0, -0.0, 0.0, 0.5, 3.0, kInf};
  for (int round = 0; round < 60; ++round) {
    const int n = 1 + static_cast<int>(rng.NextBounded(128));
    const int distinct = 1 + round % 2;
    ObjectiveVector v[2];
    for (auto& p : v) {
      p = {kValues[rng.NextBounded(7)], kValues[rng.NextBounded(7)]};
    }
    std::vector<ObjectiveVector> pts(n);
    std::vector<double> x(n), y(n);
    for (int i = 0; i < n; ++i) {
      pts[i] = v[rng.NextBounded(distinct)];
      x[i] = pts[i][0];
      y[i] = pts[i][1];
    }
    std::vector<uint32_t> kept;
    FlatParetoPositions(x.data(), y.data(), n, &kept, &scratch);
    const std::vector<size_t> got(kept.begin(), kept.end());
    EXPECT_EQ(got, ReferenceKept(pts))
        << "seed " << GetParam() << " round " << round;
    EXPECT_EQ(ParetoIndices(pts), ReferenceKept(pts));
  }
}

// Uncapped FlatMerge2 vs MergeFrontsNaive: identical points, order and
// (i, j) pairs, on a reused scratch.
TEST_P(FlatKernelPropertyTest, MergeMatchesNaiveBitwise) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 12; ++round) {
    const bool ties = round % 2 == 0;
    const auto a = RandomPoints(&rng, 1 + rng.NextBounded(18), ties);
    const auto b = RandomPoints(&rng, 1 + rng.NextBounded(18), ties);
    Front2 out;
    FlatMerge2(ToFront2(a), ToFront2(b), &out, &scratch, /*cap=*/0);
    std::vector<MergePair> naive_pairs;
    const auto naive = MergeFrontsNaive(a, b, &naive_pairs);

    ASSERT_EQ(out.size(), naive.size()) << "seed " << GetParam();
    ASSERT_EQ(scratch.pairs.size(), naive.size());
    for (size_t p = 0; p < naive.size(); ++p) {
      EXPECT_EQ(out.x[p], naive[p][0]) << "seed " << GetParam();
      EXPECT_EQ(out.y[p], naive[p][1]);
      EXPECT_EQ(scratch.pairs[p].i, naive_pairs[p].i);
      EXPECT_EQ(scratch.pairs[p].j, naive_pairs[p].j);
      EXPECT_EQ(out.payload[p], p);
    }
  }
}

TEST_P(FlatKernelPropertyTest, HypervolumeMatchesReferenceBitwise) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.NextBounded(30));
    const auto pts = RandomPoints(&rng, n, round % 2 == 0);
    const ObjectiveVector ref = {rng.Uniform(6, 14), rng.Uniform(6, 14)};
    // EXPECT_EQ, not NEAR: same terms in the same order.
    EXPECT_EQ(Hypervolume2D(pts, ref), ReferenceHypervolume(pts, ref))
        << "seed " << GetParam();
  }
}

// FlatMerge3 keeps FlatMerge2's output contract: payload p = p, and
// scratch.pairs[p] names the inputs whose sum is point p.
TEST_P(FlatKernelPropertyTest, ThreeObjectiveMergeContract) {
  Rng rng(GetParam());
  Front3 a, b, merged;
  for (uint32_t i = 0; i < 8; ++i) {
    a.Append(std::floor(rng.Uniform(0, 6)), std::floor(rng.Uniform(0, 6)),
             std::floor(rng.Uniform(0, 6)), 10 + i);
    b.Append(std::floor(rng.Uniform(0, 6)), std::floor(rng.Uniform(0, 6)),
             std::floor(rng.Uniform(0, 6)), 20 + i);
  }
  ParetoScratch scratch;
  FlatMerge3(a, b, &merged, &scratch, /*cap=*/0);
  ASSERT_GT(merged.size(), 0u);
  ASSERT_EQ(scratch.pairs.size(), merged.size());
  for (size_t p = 0; p < merged.size(); ++p) {
    EXPECT_EQ(merged.payload[p], p);
    const MergePair pair = scratch.pairs[p];
    EXPECT_EQ(merged.x[p], a.x[pair.i] + b.x[pair.j]);
    EXPECT_EQ(merged.y[p], a.y[pair.i] + b.y[pair.j]);
    EXPECT_EQ(merged.z[p], a.z[pair.i] + b.z[pair.j]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatKernelPropertyTest,
                         ::testing::Values(3, 13, 37, 97, 181, 331));

TEST(FlatMergeTest, EmptyAndSingletonFronts) {
  ParetoScratch scratch;
  Front2 empty, single, out;
  single.Append(2.0, 3.0, 0);

  FlatMerge2(empty, single, &out, &scratch, /*cap=*/0);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(scratch.pairs.empty());
  FlatMerge2(single, empty, &out, &scratch, /*cap=*/0);
  EXPECT_TRUE(out.empty());

  Front2 other;
  other.Append(5.0, 7.0, 0);
  FlatMerge2(single, other, &out, &scratch, /*cap=*/0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.x[0], 7.0);
  EXPECT_EQ(out.y[0], 10.0);
  EXPECT_EQ(out.payload[0], 0u);
  ASSERT_EQ(scratch.pairs.size(), 1u);
  EXPECT_EQ(scratch.pairs[0].i, 0u);
  EXPECT_EQ(scratch.pairs[0].j, 0u);
}

TEST(FlatMergeTest, CrossProductOrderAndAlignedPairs) {
  // a = {(0,4), (2,0)}, b = {(1,1), (3,0)}; survivors in cross-product
  // order i*|b|+j: (0,4)+(1,1)=(1,5), (2,0)+(1,1)=(3,1), (2,0)+(3,0)=(5,0).
  Front2 a, b, out;
  a.Append(0, 4, 0);
  a.Append(2, 0, 1);
  b.Append(1, 1, 0);
  b.Append(3, 0, 1);
  ParetoScratch scratch;
  FlatMerge2(a, b, &out, &scratch, /*cap=*/0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.x, (std::vector<double>{1, 3, 5}));
  EXPECT_EQ(out.y, (std::vector<double>{5, 1, 0}));
  ASSERT_EQ(scratch.pairs.size(), 3u);
  EXPECT_EQ(scratch.pairs[1].i, 1u);
  EXPECT_EQ(scratch.pairs[1].j, 0u);
}

// A capped merge of duplicate-heavy fronts: a = b = (0,1) three times
// and (1,0) twice, interleaved. The kept multiset is (0,2) x9, (1,1) x12
// and (2,0) x4; the (1,1) cells come from two run pairs whose
// cross-product keys interleave. cap = 8 picks ranks 0, 3, 6, 10, 13,
// 17, 20, 24 of the (x, y, cross-product) order.
TEST(FlatMergeTest, CappedMergeThinsAcrossRunPairs) {
  Front2 a;
  for (double x : {1.0, 0.0, 1.0, 0.0, 0.0}) a.Append(x, 1.0 - x, 0);
  ParetoScratch scratch;
  Front2 out;
  FlatMerge2(a, a, &out, &scratch, /*cap=*/8);
  const std::vector<std::pair<uint32_t, uint32_t>> want = {
      {1, 1}, {3, 1}, {4, 1}, {0, 3}, {1, 2}, {3, 0}, {4, 2}, {2, 2}};
  ASSERT_EQ(out.size(), want.size());
  ASSERT_EQ(scratch.pairs.size(), want.size());
  for (size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(scratch.pairs[p].i, want[p].first) << "point " << p;
    EXPECT_EQ(scratch.pairs[p].j, want[p].second) << "point " << p;
    EXPECT_EQ(out.payload[p], p);
  }
  EXPECT_EQ(out.x, (std::vector<double>{0, 0, 0, 1, 1, 1, 1, 2}));
  EXPECT_EQ(out.y, (std::vector<double>{2, 2, 2, 1, 1, 1, 1, 0}));

  // A cap the kept multiset fits under keeps all of it, in cross-product
  // order, exactly as the uncapped merge does.
  Front2 full;
  ParetoScratch full_scratch;
  FlatMerge2(a, a, &full, &full_scratch, /*cap=*/0);
  FlatMerge2(a, a, &out, &scratch, /*cap=*/25);
  ASSERT_EQ(full.size(), 25u);
  EXPECT_EQ(out.x, full.x);
  EXPECT_EQ(out.y, full.y);
  for (size_t p = 0; p < full.size(); ++p) {
    EXPECT_EQ(scratch.pairs[p].i, full_scratch.pairs[p].i);
    EXPECT_EQ(scratch.pairs[p].j, full_scratch.pairs[p].j);
  }
}

}  // namespace
}  // namespace sparkopt
