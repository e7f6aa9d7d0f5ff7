#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_probe.h"
#include "common/arena.h"
#include "common/pareto_flat.h"
#include "moo/dag_aggregation.h"

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
