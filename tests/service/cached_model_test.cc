#include "service/cached_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "params/sampler.h"
#include "params/spark_params.h"

namespace sparkopt {
namespace {

// conf[0] is a row id. Rows 1, 6, 11, ... return NaN latency, rows 3, 8,
// 13, ... return +inf cost; every other row is finite.
class NonFiniteModel : public SubQObjectiveModel {
 public:
  int num_subqs() const override { return 1; }
  ObjectiveVector Evaluate(int,
                           const std::vector<double>& conf) const override {
    evals_.fetch_add(1, std::memory_order_relaxed);
    const int row = static_cast<int>(conf[0]);
    ObjectiveVector f = {row + 0.5, 2.0 * row + 0.25};
    if (row % 5 == 1) f[0] = std::numeric_limits<double>::quiet_NaN();
    if (row % 5 == 3) f[1] = std::numeric_limits<double>::infinity();
    return f;
  }
  size_t eval_count() const override {
    return evals_.load(std::memory_order_relaxed);
  }

  static bool Finite(int row) { return row % 5 != 1 && row % 5 != 3; }

 private:
  mutable std::atomic<size_t> evals_{0};
};

bool SameBits(const ObjectiveVector& a, const ObjectiveVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(CachedSubQModelTest, NonFiniteObjectivesAreNeverCached) {
  SharedEvalCache cache(1024);
  const NonFiniteModel inner;
  const CachedSubQModel cached(&inner, &cache, /*salt=*/0x5A17);
  constexpr int kRows = 20;
  std::vector<std::vector<double>> confs;
  size_t non_finite = 0;
  for (int row = 0; row < kRows; ++row) {
    confs.push_back({static_cast<double>(row), 0.5});
    if (!NonFiniteModel::Finite(row)) ++non_finite;
  }
  ASSERT_EQ(non_finite, 8u);

  std::vector<ObjectiveVector> first;
  cached.EvaluateBatch(0, confs, &first);
  EXPECT_EQ(inner.eval_count(), confs.size());
  EXPECT_EQ(cache.occupancy(), confs.size() - non_finite);

  // The second pass hits every finite row and asks the inner model again
  // for exactly the non-finite ones.
  std::vector<ObjectiveVector> second;
  cached.EvaluateBatch(0, confs, &second);
  EXPECT_EQ(inner.eval_count(), confs.size() + non_finite);
  EXPECT_EQ(cached.shared_hits(), confs.size() - non_finite);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < confs.size(); ++i) {
    EXPECT_TRUE(SameBits(first[i], second[i])) << "row " << i;
  }

  // Single-row path: same hits, same re-evaluations, same bits.
  for (int row = 0; row < kRows; ++row) {
    const size_t before = inner.eval_count();
    const ObjectiveVector got = cached.Evaluate(0, confs[row]);
    EXPECT_EQ(inner.eval_count() - before,
              NonFiniteModel::Finite(row) ? 0u : 1u)
        << "row " << row;
    EXPECT_TRUE(SameBits(got, first[row])) << "row " << row;
  }
  EXPECT_EQ(cache.occupancy(), confs.size() - non_finite);
}

// Counts evaluations; every objective is finite, so every miss inserts.
class CountingModel : public SubQObjectiveModel {
 public:
  explicit CountingModel(int subqs) : subqs_(subqs) {}
  int num_subqs() const override { return subqs_; }
  ObjectiveVector Evaluate(int subq,
                           const std::vector<double>& conf) const override {
    evals_.fetch_add(1, std::memory_order_relaxed);
    return {conf[kShufflePartitions] + subq, conf[kExecutorCores]};
  }
  size_t eval_count() const override {
    return evals_.load(std::memory_order_relaxed);
  }

 private:
  int subqs_;
  mutable std::atomic<size_t> evals_{0};
};

// The service's table keeps a recurring working set without evicting it.
// Keys come the way HMOOC asks for them: per salt (one per query) and
// subQ, one batch of 32 theta_p/theta_s slices under each of 32 theta_c.
// 20,971 keys fill 16% of the service's 2^17 slots, as svc-recurring's
// working set does. A table this size matters: keys whose low bits are
// weakly mixed collide in its probe windows, where a smaller table
// shows no eviction.
TEST(CachedSubQModelTest, RecurringWorkingSetFillsTableWithoutEvicting) {
  constexpr size_t kSlots = size_t{1} << 17;
  constexpr size_t kKeys = 20971;
  constexpr int kSubQs = 16;
  SharedEvalCache cache(kSlots);
  ASSERT_EQ(cache.capacity(), kSlots);
  const CountingModel inner(kSubQs);

  const auto& space = SparkParamSpace();
  std::vector<ParamSpec> ps_specs;
  for (const auto& spec : space.specs()) {
    if (spec.category != ParamCategory::kContext) ps_specs.push_back(spec);
  }
  const ParamSpace c_space = space.Subspace(ParamCategory::kContext);
  const ParamSpace ps_space(std::move(ps_specs));

  // Pass 0 fills the table; pass 1 must hit every key.
  for (int pass = 0; pass < 2; ++pass) {
    size_t keys = 0;
    for (uint64_t query = 0; keys < kKeys; ++query) {
      const CachedSubQModel cached(&inner, &cache,
                                   HashCombine(/*version=*/1, query));
      Rng rng(HashCombine(0x5EC, query));
      const auto theta_c = SampleLatinHypercube(c_space, 32, &rng, 0.08);
      const auto pool = SampleLatinHypercube(ps_space, 32, &rng, 0.08);
      for (int subq = 0; subq < kSubQs && keys < kKeys; ++subq) {
        for (const auto& c : theta_c) {
          if (keys == kKeys) break;
          std::vector<std::vector<double>> confs;
          for (const auto& ps : pool) {
            if (keys + confs.size() == kKeys) break;
            std::vector<double> conf = c;
            conf.insert(conf.end(), ps.begin(), ps.end());
            confs.push_back(std::move(conf));
          }
          std::vector<ObjectiveVector> out;
          cached.EvaluateBatch(subq, confs, &out);
          keys += confs.size();
        }
      }
    }
    ASSERT_EQ(keys, kKeys);
    EXPECT_EQ(inner.eval_count(), kKeys) << "pass " << pass;
  }
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.drops(), 0u);
  EXPECT_EQ(cache.occupancy(), kKeys);
  EXPECT_EQ(cache.hits(), kKeys);
}

}  // namespace
}  // namespace sparkopt
