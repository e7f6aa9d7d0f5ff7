#include "service/cached_model.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

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

}  // namespace
}  // namespace sparkopt
