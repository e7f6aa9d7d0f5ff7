/// \file partitioning_property_test.cc
/// \brief Property tests for the partitioning rules (the s1/s5-s7/s10/s11
/// machinery): mass conservation, size bounds, and monotonicity across
/// randomized sweeps.

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "physical/partition_runs_util.h"
#include "physical/physical_plan.h"

namespace sparkopt {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

class PartitionRulesPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

TEST_P(PartitionRulesPropertyTest, SkewedSizesConserveMassAndOrder) {
  for (int trial = 0; trial < 20; ++trial) {
    const double total = rng_.Uniform(1.0, 1e11);
    const int n = 1 + static_cast<int>(rng_.NextBounded(2048));
    const double z = rng_.Uniform();
    auto sizes = ExpandRuns(SkewedPartitionSizes(total, n, z));
    ASSERT_EQ(sizes.size(), static_cast<size_t>(n));
    EXPECT_NEAR(Sum(sizes), total, total * 1e-9);
    // Zipf weights are non-increasing.
    for (size_t i = 1; i < sizes.size(); ++i) {
      EXPECT_LE(sizes[i], sizes[i - 1] + 1e-9);
    }
    for (double s : sizes) EXPECT_GE(s, 0.0);
  }
}

TEST_P(PartitionRulesPropertyTest, HigherSkewRaisesMaxPartition) {
  const double total = 1e9;
  const int n = 64;
  double prev_max = 0.0;
  for (double z = 0.0; z <= 1.0; z += 0.25) {
    auto sizes = ExpandRuns(SkewedPartitionSizes(total, n, z));
    EXPECT_GE(sizes[0], prev_max - 1e-6);
    prev_max = sizes[0];
  }
}

TEST_P(PartitionRulesPropertyTest, SkewSplitConservesMassAndBoundsPieces) {
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng_.NextBounded(256));
    std::vector<double> parts(n);
    for (auto& p : parts) p = rng_.Uniform(0.1, 4096.0) * kMb;
    const double threshold = rng_.Uniform(32, 1024);
    const double factor = rng_.Uniform(2, 10);
    const double advisory = rng_.Uniform(8, 256);
    auto out =
        ExpandRuns(ApplySkewSplit(RunsOf(parts), threshold, factor, advisory));
    EXPECT_NEAR(Sum(out), Sum(parts), Sum(parts) * 1e-9);
    EXPECT_GE(out.size(), parts.size());
    // Split pieces never exceed the split trigger size itself.
    std::vector<double> sorted = parts;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double limit = std::max(threshold * kMb, factor * median);
    for (double b : out) EXPECT_LE(b, std::max(limit, advisory * kMb) + 1);
  }
}

TEST_P(PartitionRulesPropertyTest, CoalesceConservesMassNeverGrowsCount) {
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng_.NextBounded(512));
    std::vector<double> parts(n);
    for (auto& p : parts) p = rng_.Uniform(0.01, 256.0) * kMb;
    const double advisory = rng_.Uniform(8, 256);
    const double small_factor = rng_.Uniform(0.1, 0.5);
    const double min_size = rng_.Uniform(1, 64);
    auto out = ExpandRuns(
        ApplyCoalesce(RunsOf(parts), advisory, small_factor, min_size));
    EXPECT_NEAR(Sum(out), Sum(parts), Sum(parts) * 1e-9 + 1e-6);
    EXPECT_LE(out.size(), parts.size());
    EXPECT_GE(out.size(), 1u);
  }
}

TEST_P(PartitionRulesPropertyTest, SplitThenCoalesceStableMass) {
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 2 + static_cast<int>(rng_.NextBounded(128));
    std::vector<double> parts(n);
    for (auto& p : parts) p = rng_.Uniform(0.1, 2048.0) * kMb;
    const double before = Sum(parts);
    auto out = ExpandRuns(ApplyCoalesce(
        ApplySkewSplit(RunsOf(parts), 256, 5, 64), 64, 0.2, 1));
    EXPECT_NEAR(Sum(out), before, before * 1e-9 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRulesPropertyTest,
                         ::testing::Values(3, 7, 31, 127, 8191));

}  // namespace
}  // namespace sparkopt
