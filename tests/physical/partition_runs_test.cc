/// \file partition_runs_test.cc
/// \brief Differential test of the run-based partition rules against the
/// per-partition reference rules (partition_oracle.h): over seeded sweeps
/// of totals, partition counts, skews and the s1/s6/s7/s10/s11 ranges,
/// every rule's runs must be canonical and expand to the reference sizes
/// bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "params/sampler.h"
#include "params/spark_params.h"
#include "physical/partition_oracle.h"
#include "physical/partition_runs_util.h"
#include "physical/physical_plan.h"

namespace sparkopt {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

::testing::AssertionResult SameBits(const std::vector<PartitionRun>& runs,
                                    const std::vector<double>& want) {
  const std::vector<double> got = ExpandRuns(runs);
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "runs expand to " << got.size() << " sizes, want "
           << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "size " << i << " is " << got[i] << ", want " << want[i];
    }
  }
  return IsCanonical(runs);
}

class PartitionRunsDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

// The planner's sequence: sizes, then split (join stages) and coalesce
// (shuffle stages), each stage of it checked against the reference.
TEST_P(PartitionRunsDifferentialTest, RulesMatchReferenceBitwise) {
  constexpr int kCases = 240;
  const auto confs = SampleLatinHypercube(SparkParamSpace(), kCases, &rng_);
  int split = 0, coalesced = 0, grouped = 0;
  for (int c = 0; c < kCases; ++c) {
    const double totals[] = {0.0, 1.0,
                             std::pow(10.0, rng_.Uniform(3.0, 13.0))};
    const double total = totals[rng_.NextBounded(3)];
    const int n = c < 2 ? (c == 0 ? 1 : 4096)
                        : 1 + static_cast<int>(rng_.NextBounded(4096));
    const double skews[] = {0.0, 1e-300, rng_.Uniform()};
    const double z = skews[rng_.NextBounded(3)];
    const PlanParams tp = DecodePlan(confs[c]);
    const StageParams ts = DecodeStage(confs[c]);
    SCOPED_TRACE(::testing::Message() << "total " << total << " n " << n
                                      << " z " << z << " conf " << c);

    const auto sizes_ref = oracle::SkewedPartitionSizes(total, n, z);
    const auto sizes = SkewedPartitionSizes(total, n, z);
    ASSERT_TRUE(SameBits(sizes, sizes_ref));

    const auto split_ref = oracle::ApplySkewSplit(
        sizes_ref, tp.skewed_partition_threshold_mb,
        tp.skewed_partition_factor, tp.advisory_partition_size_mb);
    const auto after_split = ApplySkewSplit(
        sizes, tp.skewed_partition_threshold_mb, tp.skewed_partition_factor,
        tp.advisory_partition_size_mb);
    ASSERT_TRUE(SameBits(after_split, split_ref));
    if (split_ref.size() > sizes_ref.size()) ++split;

    // Join stages coalesce the split sizes, other shuffle stages the
    // sizes themselves.
    for (const auto* in : {&sizes, &after_split}) {
      const auto& in_ref = in == &sizes ? sizes_ref : split_ref;
      const auto coalesce_ref = oracle::ApplyCoalesce(
          in_ref, tp.advisory_partition_size_mb, ts.rebalance_small_factor,
          ts.coalesce_min_partition_size_mb);
      const auto out = ApplyCoalesce(*in, tp.advisory_partition_size_mb,
                                     ts.rebalance_small_factor,
                                     ts.coalesce_min_partition_size_mb);
      ASSERT_TRUE(SameBits(out, coalesce_ref));
      if (coalesce_ref.size() < in_ref.size()) ++coalesced;
      // A run of equal group sums: emitted once for many groups.
      for (const PartitionRun& r : out) {
        const bool is_sum = std::none_of(
            in->begin(), in->end(),
            [&](const PartitionRun& p) { return p.bytes == r.bytes; });
        if (r.count > 1 && is_sum) ++grouped;
      }
    }
  }
  EXPECT_GT(split, 0);
  EXPECT_GT(coalesced, 0);
  EXPECT_GT(grouped, 0);
}

// Arbitrary inputs: unsorted sizes (the median's sort path) drawn from a
// few values, so runs of repeats meet open groups at every offset.
TEST_P(PartitionRunsDifferentialTest, ArbitraryRunsMatchReferenceBitwise) {
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> values(1 + rng_.NextBounded(4));
    for (double& v : values) v = rng_.Uniform(0.0, 300.0) * kMb;
    std::vector<double> parts(1 + rng_.NextBounded(600));
    for (double& p : parts) p = values[rng_.NextBounded(values.size())];
    const double threshold = rng_.Uniform(32, 1024);
    const double factor = rng_.Uniform(2, 10);
    const double advisory = rng_.Uniform(8, 256);
    const double small_factor = rng_.Uniform(0.1, 0.5);
    const double min_size = rng_.Uniform(1, 64);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);

    const auto runs = RunsOf(parts);
    ASSERT_TRUE(SameBits(runs, parts));
    const auto split_ref =
        oracle::ApplySkewSplit(parts, threshold, factor, advisory);
    const auto split = ApplySkewSplit(runs, threshold, factor, advisory);
    ASSERT_TRUE(SameBits(split, split_ref));
    ASSERT_TRUE(SameBits(
        ApplyCoalesce(split, advisory, small_factor, min_size),
        oracle::ApplyCoalesce(split_ref, advisory, small_factor, min_size)));
    ASSERT_TRUE(SameBits(
        ApplyCoalesce(runs, advisory, small_factor, min_size),
        oracle::ApplyCoalesce(parts, advisory, small_factor, min_size)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRunsDifferentialTest,
                         ::testing::Values(5, 11, 97, 1009, 65537));

// The median of no partitions is never read.
TEST(PartitionRunsTest, SplitOfNoRunsIsEmpty) {
  EXPECT_TRUE(ApplySkewSplit({}, 100, 5, 64).empty());
}

}  // namespace
}  // namespace sparkopt
