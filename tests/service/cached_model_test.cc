#include "service/cached_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "moo/objective_models.h"
#include "params/sampler.h"
#include "params/spark_params.h"
#include "workload/tpch.h"

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

// Confs of TPC-H Q5 for the batch tests: `n` LHS samples of the full
// space, drawn with `seed`.
std::vector<std::vector<double>> SampleConfs(size_t n, uint64_t seed) {
  Rng rng(seed);
  return SampleLatinHypercube(SparkParamSpace(), n, &rng);
}

struct AnalyticQuery {
  std::vector<TableStats> catalog = TpchCatalog(10);
  ClusterSpec cluster;
  CostModelParams cost;
  Query q = *MakeTpchQuery(5, &catalog);
};

// The cached batch path writes `out` in place: hits from the table, an
// all-miss batch straight from the inner model, a mixed batch by swapping
// the misses' rows in. Whatever `out` held before — more rows than the
// batch, of the other objective width, full of NaN — each of the three
// must give the bits of a fresh `out` from the inner model.
TEST(CachedSubQModelTest, ReusedOutRowsGiveFreshBits) {
  const AnalyticQuery fx;
  const auto base = SampleConfs(12, 3);
  const auto extra = SampleConfs(12, 4);
  for (const int k : {2, 3}) {
    AnalyticSubQModel inner(&fx.q, fx.cluster, fx.cost);
    inner.set_num_objectives(k);
    SharedEvalCache cache(1024);
    const CachedSubQModel cached(&inner, &cache, /*salt=*/0xC0DE + k);
    // Mixed: every other row comes from `extra` and misses.
    std::vector<std::vector<double>> mixed = base;
    for (size_t i = 0; i < mixed.size(); i += 2) mixed[i] = extra[i];
    const std::pair<const char*, const std::vector<std::vector<double>>*>
        batches[] = {{"all-miss", &base}, {"all-hit", &base},
                     {"mixed", &mixed}};
    const size_t other = k == 2 ? 3 : 2;
    for (int subq = 0; subq < inner.num_subqs(); ++subq) {
      const uint64_t hits_before = cached.shared_hits();
      for (const auto& [name, confs] : batches) {
        std::vector<ObjectiveVector> fresh;
        inner.EvaluateBatch(subq, *confs, &fresh);
        std::vector<ObjectiveVector> out(
            confs->size() + 3,
            ObjectiveVector(other, std::numeric_limits<double>::quiet_NaN()));
        cached.EvaluateBatch(subq, *confs, &out);
        ASSERT_EQ(out.size(), confs->size());
        for (size_t i = 0; i < out.size(); ++i) {
          EXPECT_TRUE(SameBits(out[i], fresh[i]))
              << name << " k " << k << " subq " << subq << " row " << i;
        }
      }
      // all-hit hits every row, mixed every odd one.
      EXPECT_EQ(cached.shared_hits() - hits_before,
                base.size() + base.size() / 2)
          << "subq " << subq;
    }
  }
}

// One cache and one cached model shared by four threads, each with its
// own conf and `out` buffers reused across batches of varying size (the
// service's sessions): every row has the bits a one-thread pass gets.
TEST(CachedSubQModelTest, FourThreadsShareOneCacheWithSameBits) {
  const AnalyticQuery fx;
  AnalyticSubQModel inner(&fx.q, fx.cluster, fx.cost);
  const int m = inner.num_subqs();
  // Overlapping batches: threads ask for some of the same rows, so they
  // hit each other's inserts as well as their own.
  std::vector<std::vector<std::vector<double>>> batches;
  for (uint64_t b = 0; b < 24; ++b) {
    batches.push_back(SampleConfs(1 + (b * 7) % 17, b % 8));
  }
  std::vector<std::vector<std::vector<ObjectiveVector>>> want(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    want[b].resize(m);
    for (int subq = 0; subq < m; ++subq) {
      inner.EvaluateBatch(subq, batches[b], &want[b][subq]);
    }
  }
  SharedEvalCache cache(1024);
  const CachedSubQModel cached(&inner, &cache, /*salt=*/0x4711);
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<ObjectiveVector> out;
      for (int pass = 0; pass < 3; ++pass) {
        for (size_t j = 0; j < batches.size(); ++j) {
          const size_t b = (j + 5 * t) % batches.size();
          for (int subq = 0; subq < m; ++subq) {
            cached.EvaluateBatch(subq, batches[b], &out);
            for (size_t i = 0; i < out.size(); ++i) {
              if (!SameBits(out[i], want[b][subq][i])) ++mismatches[t];
            }
            if (out.size() != want[b][subq].size()) ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_GT(cached.shared_hits(), 0u);
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
