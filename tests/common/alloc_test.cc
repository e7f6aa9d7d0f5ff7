#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_probe.h"
#include "common/arena.h"
#include "common/pareto_flat.h"
#include "moo/dag_aggregation.h"
#include "moo/hmooc.h"
#include "moo/objective_models.h"
#include "service/cached_model.h"
#include "service/model_bootstrap.h"
#include "workload/tpch.h"

// ---------------------------------------------------------------------------
// Replaceable global allocation functions. Every operator-new form
// funnels through CountedAlloc/CountedAlignedAlloc so AllocProbe
// observes all heap traffic in this binary. Replacement functions must
// not be inline, so these definitions live here (and only here) while
// the counter itself lives in alloc_probe.h.
// ---------------------------------------------------------------------------

namespace {

void* CountedAlloc(std::size_t size) {
  sparkopt::testing::g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  sparkopt::testing::g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sparkopt {
namespace {

using sparkopt::testing::AllocProbe;

// Staircase fronts (x ascending, y descending): valid sorted
// non-dominated inputs for the 2-D kernel.
Front2 Staircase2(int n, double x_step, double y_base) {
  Front2 f;
  for (int i = 0; i < n; ++i) {
    f.Append(x_step * i, y_base - i, static_cast<size_t>(i));
  }
  return f;
}

// 3-D fronts with x strictly ascending and y strictly descending are
// mutually non-dominated for any z, and lex-sorted by construction.
Front3 Staircase3(int n, double x_step, double y_base, int z_mod) {
  Front3 f;
  for (int i = 0; i < n; ++i) {
    f.Append(x_step * i, y_base - i,
             static_cast<double>((i * 7) % z_mod), static_cast<size_t>(i));
  }
  return f;
}

TEST(AllocProbeTest, CountsHeapAllocations) {
  AllocProbe probe;
  auto p = std::make_unique<std::vector<int>>(128, 7);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(probe.allocations(), 1u);
}

TEST(SteadyStateAllocTest, Merge2IsAllocationFreeAfterWarmup) {
  ParetoScratch scratch;
  const Front2 a = Staircase2(48, 1.0, 100.0);
  const Front2 b = Staircase2(32, 0.5, 80.0);
  Front2 out;
  for (int r = 0; r < 2; ++r) FlatMerge2(a, b, &out, &scratch, /*cap=*/0);
  AllocProbe probe;
  for (int r = 0; r < 16; ++r) FlatMerge2(a, b, &out, &scratch, /*cap=*/0);
  EXPECT_EQ(probe.allocations(), 0u);
  EXPECT_GT(out.size(), 0u);
}

TEST(SteadyStateAllocTest, Merge3IsAllocationFreeAfterWarmup) {
  ParetoScratch scratch;
  const Front3 a = Staircase3(48, 1.0, 100.0, 13);
  const Front3 b = Staircase3(32, 0.5, 80.0, 11);
  Front3 out;
  for (int r = 0; r < 2; ++r) FlatMerge3(a, b, &out, &scratch, /*cap=*/0);
  AllocProbe probe;
  for (int r = 0; r < 16; ++r) FlatMerge3(a, b, &out, &scratch, /*cap=*/0);
  EXPECT_EQ(probe.allocations(), 0u);
  EXPECT_GT(out.size(), 0u);
}

TEST(SteadyStateAllocTest, Positions3IsAllocationFreeAfterWarmup) {
  ParetoScratch scratch;
  const Front3 a = Staircase3(256, 1.0, 400.0, 17);
  for (int r = 0; r < 2; ++r) {
    FlatParetoPositions3(a.x.data(), a.y.data(), a.z.data(), a.size(),
                         &scratch.kept, &scratch);
  }
  AllocProbe probe;
  for (int r = 0; r < 16; ++r) {
    FlatParetoPositions3(a.x.data(), a.y.data(), a.z.data(), a.size(),
                         &scratch.kept, &scratch);
  }
  EXPECT_EQ(probe.allocations(), 0u);
  EXPECT_EQ(scratch.kept.size(), a.size());
}

// HMOOC's batch shape on the analytic model: one or two distinct points
// repeated, the filter's common case.
TEST(SteadyStateAllocTest, Positions2IsAllocationFreeAfterWarmup) {
  ParetoScratch scratch;
  std::vector<double> x(128), y(128);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = i % 3 == 0 ? 2.0 : 1.0;
    y[i] = i % 3 == 0 ? 1.0 : 2.0;
  }
  const Front2 staircase = Staircase2(256, 1.0, 400.0);
  for (int r = 0; r < 2; ++r) {
    FlatParetoPositions(staircase.x.data(), staircase.y.data(),
                        staircase.size(), &scratch.kept, &scratch);
  }
  AllocProbe probe;
  for (int r = 0; r < 16; ++r) {
    FlatParetoPositions(staircase.x.data(), staircase.y.data(),
                        staircase.size(), &scratch.kept, &scratch);
    EXPECT_EQ(scratch.kept.size(), staircase.size());
    FlatParetoPositions(x.data(), y.data(), x.size(), &scratch.kept,
                        &scratch);
    EXPECT_EQ(scratch.kept.size(), x.size());
  }
  EXPECT_EQ(probe.allocations(), 0u);
}

std::vector<std::vector<SubQEntry>> MakeSets(int m, int per_set, int k) {
  std::vector<std::vector<SubQEntry>> sets(m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < per_set; ++j) {
      SubQEntry e;
      e.pool_idx = i * per_set + j;
      e.f[0] = 1.0 + j;
      e.f[1] = 10.0 + per_set - j;
      if (k == 3) e.f[2] = static_cast<double>((j * 5 + i) % 7);
      sets[i].push_back(e);
    }
  }
  return sets;
}

class DagAggregatorAllocTest : public ::testing::TestWithParam<int> {};

TEST_P(DagAggregatorAllocTest, AggregateDcIsAllocationFreeAfterWarmup) {
#ifdef SPARKOPT_VERIFY
  GTEST_SKIP() << "verify builds allocate in DagAggregator's front checks";
#else
  const int k = GetParam();
  const auto sets = MakeSets(/*m=*/6, /*per_set=*/8, k);
  DagAggregator aggregator;
  AggregatedBatch batch;
  // Warm-up: node pool, scratch buffers, arena blocks, and the output
  // batch all reach their high-water capacity.
  for (int r = 0; r < 2; ++r) {
    aggregator.AggregateDc(sets, k, /*cap=*/64, &batch);
  }
  AllocProbe probe;
  for (int r = 0; r < 16; ++r) {
    aggregator.AggregateDc(sets, k, /*cap=*/64, &batch);
  }
  EXPECT_EQ(probe.allocations(), 0u);
  EXPECT_GT(batch.size(), 0u);
  EXPECT_EQ(batch.k, k);
#endif
}

// HMOOC1's real traffic: every subQ set repeats a few distinct points,
// so merges run on runs of exact duplicates, often over the cap, and
// some sums coincide across run pairs.
TEST_P(DagAggregatorAllocTest, AggregateDcOnDuplicateRunsIsAllocationFree) {
#ifdef SPARKOPT_VERIFY
  GTEST_SKIP() << "verify builds allocate in DagAggregator's front checks";
#else
  const int k = GetParam();
  std::vector<std::vector<SubQEntry>> sets(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 40; ++j) {
      SubQEntry e;
      e.pool_idx = i * 40 + j;
      e.f[0] = (j + i) % 3 == 0 ? 1.0 : 0.0;
      e.f[1] = 1.0 - e.f[0];
      if (k == 3) e.f[2] = e.f[0];
      sets[i].push_back(e);
    }
  }
  DagAggregator aggregator;
  AggregatedBatch batch;
  for (int r = 0; r < 2; ++r) {
    aggregator.AggregateDc(sets, k, /*cap=*/64, &batch);
  }
  AllocProbe probe;
  for (int r = 0; r < 16; ++r) {
    aggregator.AggregateDc(sets, k, /*cap=*/64, &batch);
  }
  EXPECT_EQ(probe.allocations(), 0u);
  EXPECT_EQ(batch.size(), 64u);
#endif
}

TEST_P(DagAggregatorAllocTest, WeightedSumAndBoundaryAreAllocationFree) {
#ifdef SPARKOPT_VERIFY
  GTEST_SKIP() << "verify builds allocate in DagAggregator's front checks";
#else
  const int k = GetParam();
  const auto sets = MakeSets(/*m=*/5, /*per_set=*/6, k);
  DagAggregator aggregator;
  AggregatedBatch batch;
  for (int r = 0; r < 2; ++r) {
    aggregator.AggregateWeightedSum(sets, k, /*ws_pairs=*/11,
                                    /*normalize=*/true, &batch);
    aggregator.AggregateBoundary(sets, k, &batch);
  }
  AllocProbe probe;
  for (int r = 0; r < 16; ++r) {
    aggregator.AggregateWeightedSum(sets, k, /*ws_pairs=*/11,
                                    /*normalize=*/true, &batch);
    aggregator.AggregateBoundary(sets, k, &batch);
  }
  EXPECT_EQ(probe.allocations(), 0u);
#endif
}

INSTANTIATE_TEST_SUITE_P(Objectives, DagAggregatorAllocTest,
                         ::testing::Values(2, 3));

// Steps 3-5 of a solve keep their batch rows per thread (RowList), and
// the models write objective rows in place, so a warm one-thread solve
// allocates per batch and per front point, not per model row. Each solve
// gets a fresh model, as a Tuner request does; the warm-up solve only
// warms the calling thread.
class SolveAllocTest : public ::testing::TestWithParam<int> {};

// Verify builds recompute every stage-table row on the direct path and
// so allocate per row; sanitizer builds are left out with them, since
// the probe measures the solver, not an instrumented runtime.
constexpr bool kSolveAllocIsMeasurable =
#if defined(SPARKOPT_VERIFY) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    false;
#else
    true;
#endif

// Allocations per model row of a one-thread default-budget solve of
// `model` with `seed`, after a warm-up solve of `warm` with seed 1.
double AllocationsPerRow(const SubQObjectiveModel& warm,
                         const SubQObjectiveModel& model, uint64_t seed) {
  HmoocOptions opts;
  opts.num_threads = 1;
  opts.seed = 1;
  HmoocSolver(&warm, opts).Solve();
  opts.seed = seed;
  AllocProbe probe;
  const MooRunResult result = HmoocSolver(&model, opts).Solve();
  const uint64_t allocations = probe.allocations();
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_FALSE(result.pareto.empty());
  return static_cast<double>(allocations) /
         static_cast<double>(result.evaluations);
}

TEST_P(SolveAllocTest, AnalyticSolveAllocatesLessThanHalfPerRow) {
  if (!kSolveAllocIsMeasurable) {
    GTEST_SKIP() << "verify and sanitizer builds allocate on the model path";
  }
  const std::vector<TableStats> catalog = TpchCatalog(100);
  const Query q = *MakeTpchQuery(GetParam(), &catalog);
  const ClusterSpec cluster;
  const CostModelParams cost;
  const AnalyticSubQModel warm(&q, cluster, cost);
  const AnalyticSubQModel model(&q, cluster, cost);
  EXPECT_LT(AllocationsPerRow(warm, model, /*seed=*/1), 0.5)
      << "TPC-H Q" << GetParam();
}

// The service's path: a learned model behind the shared cache. The
// measured solve draws another seed, so nearly every row misses and the
// cache hands whole batches to the learned model.
TEST_P(SolveAllocTest, CachedLearnedSolveAllocatesLessThanHalfPerRow) {
  if (!kSolveAllocIsMeasurable) {
    GTEST_SKIP() << "verify and sanitizer builds allocate on the model path";
  }
  const std::vector<TableStats> catalog = TpchCatalog(100);
  const Query q = *MakeTpchQuery(GetParam(), &catalog);
  const ClusterSpec cluster;
  const CostModelParams cost;
  BootstrapOptions bo;
  bo.samples_per_query = 12;
  bo.hidden = {24, 12};
  bo.epochs = 10;
  auto reg = FitSubQRegressor({&q}, cluster, cost, PriceBook(), bo);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  SharedEvalCache cache(size_t{1} << 16);
  const LearnedSubQModel warm_learned(&q, cluster, cost, &*reg);
  const LearnedSubQModel learned(&q, cluster, cost, &*reg);
  const CachedSubQModel warm(&warm_learned, &cache, /*salt=*/0x5EED);
  const CachedSubQModel model(&learned, &cache, /*salt=*/0x5EED);
  EXPECT_LT(AllocationsPerRow(warm, model, /*seed=*/2), 0.5)
      << "TPC-H Q" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TpchSf100, SolveAllocTest,
                         ::testing::Values(9, 18));

TEST(SteadyStateAllocTest, ArenaResetReusesBlocks) {
  MonotonicArena arena;
  for (int r = 0; r < 2; ++r) {
    arena.Reset();
    (void)arena.AllocArray<double>(1024);
    (void)arena.AllocArray<int>(513);
    (void)arena.AllocArray<char>(77);
  }
  AllocProbe probe;
  for (int r = 0; r < 16; ++r) {
    arena.Reset();
    double* d = arena.AllocArray<double>(1024);
    int* i = arena.AllocArray<int>(513);
    char* c = arena.AllocArray<char>(77);
    ASSERT_NE(d, nullptr);
    ASSERT_NE(i, nullptr);
    ASSERT_NE(c, nullptr);
  }
  EXPECT_EQ(probe.allocations(), 0u);
}

}  // namespace
}  // namespace sparkopt
