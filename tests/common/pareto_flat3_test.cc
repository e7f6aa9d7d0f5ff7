#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/pareto.h"
#include "common/pareto_flat.h"
#include "common/rng.h"

// Property suite for the k = 3 flat Pareto kernel, mirroring
// pareto_flat_test.cc: every primitive must be bitwise identical — same
// points, same (i, j) pairs, same stable order — to the naive
// formulation. Random fronts are drawn with floored coordinates so
// duplicate points and ties occur constantly.

namespace sparkopt {
namespace {

std::vector<ObjectiveVector> RandomPoints3(Rng* rng, int n, bool ties) {
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(3));
  for (auto& p : pts) {
    for (auto& v : p) {
      v = ties ? std::floor(rng->Uniform(0, 8)) : rng->Uniform(0, 8);
    }
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

Front3 ToFront3(const std::vector<ObjectiveVector>& pts) {
  Front3 f;
  for (size_t i = 0; i < pts.size(); ++i) {
    f.Append(pts[i][0], pts[i][1], pts[i][2], i);
  }
  return f;
}

class FlatKernel3PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatKernel3PropertyTest, ParetoPositionsMatchReference) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.NextBounded(40));
    const auto pts = RandomPoints3(&rng, n, round % 2 == 0);
    std::vector<double> x(n), y(n), z(n);
    for (int i = 0; i < n; ++i) {
      x[i] = pts[i][0];
      y[i] = pts[i][1];
      z[i] = pts[i][2];
    }
    std::vector<uint32_t> kept;
    FlatParetoPositions3(x.data(), y.data(), z.data(), n, &kept, &scratch);
    const std::vector<size_t> got(kept.begin(), kept.end());
    EXPECT_EQ(got, ReferenceKept(pts)) << "seed " << GetParam();
    // The shim must route k = 3 to the same answer.
    EXPECT_EQ(ParetoIndices(pts), ReferenceKept(pts));
  }
}

// FlatMerge3 vs the materialized cross product + quadratic filter:
// identical sums, cross-product order, and aligned (i, j) pairs.
TEST_P(FlatKernel3PropertyTest, MergeMatchesMaterializedProduct) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 12; ++round) {
    const bool ties = round % 2 == 0;
    const auto pa = RandomPoints3(&rng, 1 + rng.NextBounded(14), ties);
    const auto pb = RandomPoints3(&rng, 1 + rng.NextBounded(14), ties);
    Front3 a = ToFront3(pa), b = ToFront3(pb), out;
    FlatMerge3(a, b, &out, &scratch, /*cap=*/0);

    std::vector<ObjectiveVector> product;
    for (size_t i = 0; i < pa.size(); ++i) {
      for (size_t j = 0; j < pb.size(); ++j) {
        product.push_back(
            {pa[i][0] + pb[j][0], pa[i][1] + pb[j][1], pa[i][2] + pb[j][2]});
      }
    }
    const auto ref = ReferenceKept(product);
    ASSERT_EQ(out.size(), ref.size()) << "seed " << GetParam();
    ASSERT_EQ(scratch.pairs.size(), ref.size());
    for (size_t p = 0; p < ref.size(); ++p) {
      const size_t i = ref[p] / pb.size();
      const size_t j = ref[p] % pb.size();
      EXPECT_EQ(scratch.pairs[p].i, i);
      EXPECT_EQ(scratch.pairs[p].j, j);
      EXPECT_EQ(out.x[p], pa[i][0] + pb[j][0]);
      EXPECT_EQ(out.y[p], pa[i][1] + pb[j][1]);
      EXPECT_EQ(out.z[p], pa[i][2] + pb[j][2]);
      EXPECT_EQ(out.payload[p], p);
    }
  }
}

// Uncapped FlatMerge3 vs MergeFrontsNaive on a reused scratch: identical
// points, order and (i, j) pairs — the k = 3 sibling of
// FlatKernelPropertyTest.MergeMatchesNaiveBitwise.
TEST_P(FlatKernel3PropertyTest, MergeFrontsMatchesNaiveBitwise) {
  Rng rng(GetParam());
  ParetoScratch scratch;
  for (int round = 0; round < 12; ++round) {
    const bool ties = round % 2 == 0;
    const auto a = RandomPoints3(&rng, 1 + rng.NextBounded(14), ties);
    const auto b = RandomPoints3(&rng, 1 + rng.NextBounded(14), ties);
    Front3 out;
    FlatMerge3(ToFront3(a), ToFront3(b), &out, &scratch, /*cap=*/0);
    std::vector<MergePair> naive_pairs;
    const auto naive = MergeFrontsNaive(a, b, &naive_pairs);

    ASSERT_EQ(out.size(), naive.size()) << "seed " << GetParam();
    ASSERT_EQ(scratch.pairs.size(), naive.size());
    for (size_t p = 0; p < naive.size(); ++p) {
      EXPECT_EQ(out.x[p], naive[p][0]) << "seed " << GetParam();
      EXPECT_EQ(out.y[p], naive[p][1]);
      EXPECT_EQ(out.z[p], naive[p][2]);
      EXPECT_EQ(scratch.pairs[p].i, naive_pairs[p].i);
      EXPECT_EQ(scratch.pairs[p].j, naive_pairs[p].j);
      EXPECT_EQ(out.payload[p], p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatKernel3PropertyTest,
                         ::testing::Values(3, 13, 37, 97, 181, 331));

TEST(FlatMerge3Test, EmptyAndSingletonFronts) {
  ParetoScratch scratch;
  Front3 empty, single, out;
  single.Append(2.0, 3.0, 4.0, 0);

  FlatMerge3(empty, single, &out, &scratch, /*cap=*/0);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(scratch.pairs.empty());
  FlatMerge3(single, empty, &out, &scratch, /*cap=*/0);
  EXPECT_TRUE(out.empty());

  Front3 other;
  other.Append(5.0, 7.0, 1.0, 0);
  FlatMerge3(single, other, &out, &scratch, /*cap=*/0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.x[0], 7.0);
  EXPECT_EQ(out.y[0], 10.0);
  EXPECT_EQ(out.z[0], 5.0);
  EXPECT_EQ(out.payload[0], 0u);
  ASSERT_EQ(scratch.pairs.size(), 1u);
  EXPECT_EQ(scratch.pairs[0].i, 0u);
  EXPECT_EQ(scratch.pairs[0].j, 0u);
}

TEST(FlatMerge3Test, CrossProductOrderAndAlignedPairs) {
  // a = {(0,4,1), (2,0,3)}, b = {(1,1,0), (3,0,2)}. Sums in cross-product
  // order: (1,5,1), (3,4,3), (3,1,3), (5,0,5) — (3,4,3) is dominated by
  // (3,1,3); everything else survives.
  Front3 a, b, out;
  a.Append(0, 4, 1, 0);
  a.Append(2, 0, 3, 1);
  b.Append(1, 1, 0, 0);
  b.Append(3, 0, 2, 1);
  ParetoScratch scratch;
  FlatMerge3(a, b, &out, &scratch, /*cap=*/0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.x, (std::vector<double>{1, 3, 5}));
  EXPECT_EQ(out.y, (std::vector<double>{5, 1, 0}));
  EXPECT_EQ(out.z, (std::vector<double>{1, 3, 5}));
  ASSERT_EQ(scratch.pairs.size(), 3u);
  EXPECT_EQ(scratch.pairs[1].i, 1u);
  EXPECT_EQ(scratch.pairs[1].j, 0u);
}

// The k = 3 twin of FlatMergeTest.CappedMergeThinsAcrossRunPairs, with
// z = x: the kept multiset is (0,2,0) x9, (1,1,1) x12 and (2,0,2) x4, and
// cap = 8 picks the same cells.
TEST(FlatMerge3Test, CappedMergeThinsAcrossRunPairs) {
  Front3 a;
  for (double x : {1.0, 0.0, 1.0, 0.0, 0.0}) a.Append(x, 1.0 - x, x, 0);
  ParetoScratch scratch;
  Front3 out;
  FlatMerge3(a, a, &out, &scratch, /*cap=*/8);
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
  EXPECT_EQ(out.z, (std::vector<double>{0, 0, 0, 1, 1, 1, 1, 2}));

  Front3 full;
  ParetoScratch full_scratch;
  FlatMerge3(a, a, &full, &full_scratch, /*cap=*/0);
  FlatMerge3(a, a, &out, &scratch, /*cap=*/25);
  ASSERT_EQ(full.size(), 25u);
  EXPECT_EQ(out.x, full.x);
  EXPECT_EQ(out.y, full.y);
  EXPECT_EQ(out.z, full.z);
  for (size_t p = 0; p < full.size(); ++p) {
    EXPECT_EQ(scratch.pairs[p].i, full_scratch.pairs[p].i);
    EXPECT_EQ(scratch.pairs[p].j, full_scratch.pairs[p].j);
  }
}

}  // namespace
}  // namespace sparkopt
