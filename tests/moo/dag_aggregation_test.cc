#include "moo/dag_aggregation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "common/pareto.h"
#include "common/rng.h"

namespace sparkopt {
namespace {

// Random per-subQ effective sets with small-integer objective values so
// exact ties occur; every entry carries a distinct pool index.
std::vector<std::vector<SubQEntry>> RandomSets(int m, int per_set, int k,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<SubQEntry>> sets(m);
  int pool = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < per_set; ++j) {
      SubQEntry e;
      e.pool_idx = pool++;
      for (int d = 0; d < k; ++d) {
        e.f[d] = std::floor(rng.Uniform() * 9.0);
      }
      sets[i].push_back(e);
    }
  }
  return sets;
}

// Brute-force reference: materialize every cross-combination's summed
// objective vector and Pareto-filter it.
std::vector<ObjectiveVector> BruteForceFront(
    const std::vector<std::vector<SubQEntry>>& sets, int k) {
  std::vector<ObjectiveVector> sums;
  sums.push_back(ObjectiveVector(k, 0.0));
  for (const auto& s : sets) {
    std::vector<ObjectiveVector> next;
    for (const auto& acc : sums) {
      for (const auto& e : s) {
        ObjectiveVector v = acc;
        for (int d = 0; d < k; ++d) v[d] += e.f[d];
        next.push_back(std::move(v));
      }
    }
    sums = std::move(next);
  }
  std::vector<ObjectiveVector> front;
  for (size_t i : ParetoIndices(sums)) front.push_back(sums[i]);
  std::sort(front.begin(), front.end());
  return front;
}

ObjectiveVector PointOf(const AggregatedBatch& b, size_t p) {
  return ObjectiveVector(b.obj.begin() + p * b.k,
                         b.obj.begin() + (p + 1) * b.k);
}

// Effective sets shaped like HMOOC1's real traffic: each subQ set repeats
// 1-4 distinct points (one copy per tied pool conf) on a 0.25 grid, so
// runs of exact duplicates and coincident sums are both common. Half the
// sets put their points on the line x + y = 2, where sums from different
// run pairs coincide most often.
std::vector<std::vector<SubQEntry>> DuplicateHeavySets(Rng* rng, int k) {
  std::vector<std::vector<SubQEntry>> sets(2 + rng->NextBounded(9));
  int pool = 0;
  for (auto& set : sets) {
    std::vector<SubQEntry> distinct(1 + rng->NextBounded(4));
    const bool diagonal = rng->NextBounded(2) == 0;
    for (auto& e : distinct) {
      for (int d = 0; d < k; ++d) e.f[d] = 0.25 * rng->NextBounded(8);
      if (diagonal) e.f[1] = 2.0 - e.f[0];
    }
    const size_t n = 1 + rng->NextBounded(40);
    for (size_t j = 0; j < n; ++j) {
      SubQEntry e = distinct[rng->NextBounded(distinct.size())];
      e.pool_idx = pool++;
      set.push_back(e);
    }
  }
  return sets;
}

// HMOOC1 spelled out on the naive path: the same divide-and-conquer split
// as DagAggregator, each merge a materialized cross product filtered in
// cross-product order, each over-cap front thinned to the ranks
// t * (n - 1) / (cap - 1) of a stable (x, y[, z], position) sort.
struct OracleNode {
  std::vector<ObjectiveVector> points;
  std::vector<std::vector<int>> rows;  ///< per-point pool choices
};

void OracleThin(OracleNode* node, size_t cap) {
  const size_t n = node->points.size();
  if (n <= cap || cap < 2) return;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t p, size_t q) {
    return node->points[p] < node->points[q];
  });
  OracleNode thin;
  for (size_t t = 0; t < cap; ++t) {
    const size_t src = order[t * (n - 1) / (cap - 1)];
    thin.points.push_back(node->points[src]);
    thin.rows.push_back(node->rows[src]);
  }
  *node = std::move(thin);
}

OracleNode OracleDc(const std::vector<std::vector<SubQEntry>>& sets, int lo,
                    int hi, int k, size_t cap) {
  OracleNode out;
  if (lo == hi) {
    for (const SubQEntry& e : sets[lo]) {
      out.points.emplace_back(e.f, e.f + k);
      out.rows.push_back({e.pool_idx});
    }
    return out;
  }
  const int mid = (lo + hi) / 2;
  const OracleNode left = OracleDc(sets, lo, mid, k, cap);
  const OracleNode right = OracleDc(sets, mid + 1, hi, k, cap);
  std::vector<MergePair> pairs;
  out.points = MergeFrontsNaive(left.points, right.points, &pairs);
  for (const MergePair& pair : pairs) {
    std::vector<int> row = left.rows[pair.i];
    const std::vector<int>& tail = right.rows[pair.j];
    row.insert(row.end(), tail.begin(), tail.end());
    out.rows.push_back(std::move(row));
  }
  OracleThin(&out, cap);
  return out;
}

class DagAggregationTest : public ::testing::TestWithParam<int> {};

TEST_P(DagAggregationTest, DcMatchesBruteForceWithoutThinning) {
  const int k = GetParam();
  for (uint64_t seed : {11u, 23u, 59u}) {
    const auto sets = RandomSets(/*m=*/4, /*per_set=*/5, k, seed);
    DagAggregator aggregator;
    AggregatedBatch batch;
    // cap larger than any possible front: the D&C result is the exact
    // query-level front.
    aggregator.AggregateDc(sets, k, /*cap=*/100000, &batch);
    std::vector<ObjectiveVector> got;
    for (size_t p = 0; p < batch.size(); ++p) got.push_back(PointOf(batch, p));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteForceFront(sets, k)) << "seed " << seed;
  }
}

TEST_P(DagAggregationTest, ChoiceRowsReproduceTheObjectives) {
  const int k = GetParam();
  const auto sets = RandomSets(/*m=*/5, /*per_set=*/4, k, 77);
  // Pool lookup: pool_idx -> entry.
  std::vector<const SubQEntry*> pool;
  for (const auto& s : sets) {
    for (const auto& e : s) {
      pool.resize(std::max(pool.size(), static_cast<size_t>(e.pool_idx) + 1));
      pool[e.pool_idx] = &e;
    }
  }
  DagAggregator aggregator;
  for (int mode = 0; mode < 3; ++mode) {
    AggregatedBatch batch;
    if (mode == 0) {
      aggregator.AggregateDc(sets, k, /*cap=*/128, &batch);
    } else if (mode == 1) {
      aggregator.AggregateWeightedSum(sets, k, /*ws_pairs=*/11,
                                      /*normalize=*/true, &batch);
    } else {
      aggregator.AggregateBoundary(sets, k, &batch);
    }
    ASSERT_EQ(batch.k, k);
    ASSERT_EQ(batch.width, static_cast<int>(sets.size()));
    ASSERT_GT(batch.size(), 0u) << "mode " << mode;
    for (size_t p = 0; p < batch.size(); ++p) {
      ObjectiveVector sum(k, 0.0);
      for (int i = 0; i < batch.width; ++i) {
        const int idx = batch.choice[p * batch.width + i];
        ASSERT_GE(idx, 0);
        for (int d = 0; d < k; ++d) sum[d] += pool[idx]->f[d];
      }
      EXPECT_EQ(sum, PointOf(batch, p)) << "mode " << mode << " point " << p;
    }
  }
}

TEST_P(DagAggregationTest, DcThinningCapsTheFrontWithValidPoints) {
  const int k = GetParam();
  const auto sets = RandomSets(/*m=*/4, /*per_set=*/6, k, 31);
  DagAggregator aggregator;
  AggregatedBatch full, thin;
  aggregator.AggregateDc(sets, k, /*cap=*/100000, &full);
  aggregator.AggregateDc(sets, k, /*cap=*/8, &thin);
  EXPECT_LE(thin.size(), 8u);
  EXPECT_GT(thin.size(), 0u);
  // Thinning drops combinations, it never invents points: every thinned
  // point is a real combination, so it is weakly dominated by (or on)
  // the exact query-level front.
  std::vector<ObjectiveVector> exact;
  for (size_t p = 0; p < full.size(); ++p) exact.push_back(PointOf(full, p));
  for (size_t p = 0; p < thin.size(); ++p) {
    const ObjectiveVector v = PointOf(thin, p);
    bool covered = false;
    for (const auto& e : exact) {
      bool weak = true;
      for (int d = 0; d < k; ++d) weak = weak && e[d] <= v[d];
      if (weak) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "thinned point " << p
                         << " beats the exact front";
  }
}

// Pins HMOOC1's output bit for bit — objectives, point order and choice
// rows — against the oracle, capped and (when the product of the set
// sizes is small enough to materialize) uncapped.
TEST_P(DagAggregationTest, DcMatchesThinningOracleBitwise) {
  const int k = GetParam();
  Rng rng(2024 + k);
  DagAggregator aggregator;
  AggregatedBatch batch;
  for (int draw = 0; draw < 16; ++draw) {
    const auto sets = DuplicateHeavySets(&rng, k);
    const int m = static_cast<int>(sets.size());
    std::vector<size_t> caps = {2, 3, 8, 64, 192};
    double product = 1.0;
    for (const auto& s : sets) product *= static_cast<double>(s.size());
    if (product <= 4096.0) caps.push_back(0);
    for (const size_t cap : caps) {
      aggregator.AggregateDc(sets, k, cap, &batch);
      const OracleNode want = OracleDc(sets, 0, m - 1, k, cap);
      ASSERT_EQ(batch.size(), want.points.size())
          << "draw " << draw << " cap " << cap;
      for (size_t p = 0; p < batch.size(); ++p) {
        ASSERT_EQ(PointOf(batch, p), want.points[p])
            << "draw " << draw << " cap " << cap << " point " << p;
        const std::vector<int> row(batch.choice.begin() + p * m,
                                   batch.choice.begin() + (p + 1) * m);
        ASSERT_EQ(row, want.rows[p])
            << "draw " << draw << " cap " << cap << " point " << p;
      }
    }
  }
}

TEST_P(DagAggregationTest, BoundaryReturnsPerObjectiveMinima) {
  const int k = GetParam();
  const auto sets = RandomSets(/*m=*/3, /*per_set=*/5, k, 101);
  DagAggregator aggregator;
  AggregatedBatch batch;
  aggregator.AggregateBoundary(sets, k, &batch);
  ASSERT_EQ(batch.size(), static_cast<size_t>(k));
  const auto exact = BruteForceFront(sets, k);
  for (int d = 0; d < k; ++d) {
    double best = 1e300;
    for (const auto& v : exact) best = std::min(best, v[d]);
    EXPECT_EQ(PointOf(batch, d)[d], best) << "objective " << d;
  }
}

TEST_P(DagAggregationTest, EmptySubqSetYieldsEmptyBatch) {
  const int k = GetParam();
  auto sets = RandomSets(/*m=*/3, /*per_set=*/4, k, 5);
  sets[1].clear();
  DagAggregator aggregator;
  AggregatedBatch batch;
  aggregator.AggregateDc(sets, k, /*cap=*/64, &batch);
  EXPECT_EQ(batch.size(), 0u);
  aggregator.AggregateWeightedSum(sets, k, 11, true, &batch);
  EXPECT_EQ(batch.size(), 0u);
  aggregator.AggregateBoundary(sets, k, &batch);
  EXPECT_EQ(batch.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Objectives, DagAggregationTest,
                         ::testing::Values(2, 3));

}  // namespace
}  // namespace sparkopt
