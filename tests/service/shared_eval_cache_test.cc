#include "service/shared_eval_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.h"

namespace sparkopt {
namespace {

/// Payload as a pure function of the key: any hit whose fields disagree
/// with this is a torn read.
SubQObjectives ValueOf(uint64_t key) {
  SubQObjectives v;
  v.analytical_latency = static_cast<double>(key & 0xFFFF) + 0.5;
  v.io_bytes = static_cast<double>(key >> 16) * 2.0;
  v.cost = static_cast<double>(key % 97) * 0.125;
  return v;
}

TEST(SharedEvalCacheTest, InsertEvictsInsteadOfDroppingWhenWindowFull) {
  SharedEvalCache cache(1024);
  ASSERT_EQ(cache.capacity(), 1024u);
  // Keys congruent mod capacity share one probe window. kMaxProbe fit;
  // the next insert must CLOCK-evict the oldest untouched entry rather
  // than drop the new value.
  const uint64_t base = 0x1000;
  const uint64_t stride = cache.capacity();
  auto value_of = [](uint64_t j) {
    SubQObjectives v;
    v.analytical_latency = static_cast<double>(j) + 0.25;
    v.io_bytes = static_cast<double>(j) * 2.0;
    v.cost = static_cast<double>(j) * 3.0;
    return v;
  };
  for (uint64_t j = 0; j < 16; ++j) {
    cache.Insert(base + j * stride, value_of(j));
  }
  EXPECT_EQ(cache.occupancy(), 16u);
  EXPECT_EQ(cache.evictions(), 0u);

  cache.Insert(base + 16 * stride, value_of(16));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.drops(), 0u);
  // Replacement happens in place: occupancy is unchanged.
  EXPECT_EQ(cache.occupancy(), 16u);
  SubQObjectives got;
  ASSERT_TRUE(cache.Lookup(base + 16 * stride, &got));
  EXPECT_EQ(got.analytical_latency, value_of(16).analytical_latency);
  EXPECT_EQ(got.io_bytes, value_of(16).io_bytes);
  EXPECT_EQ(got.cost, value_of(16).cost);
  // The first sweep cleared every ref bit and the second claimed the
  // window's first entry, so key 0 is the one that went.
  EXPECT_FALSE(cache.Lookup(base + 0 * stride, &got));
}

TEST(SharedEvalCacheTest, ClockGivesRecentlyTouchedEntriesASecondChance) {
  SharedEvalCache cache(1024);
  const uint64_t base = 0x1000;
  const uint64_t stride = cache.capacity();
  for (uint64_t j = 0; j < 16; ++j) {
    cache.Insert(base + j * stride, SubQObjectives{});
  }
  // First eviction clears all ref bits, replaces entry 0 with key 16
  // (whose ref is set by the insert).
  cache.Insert(base + 16 * stride, SubQObjectives{});
  // A hit re-arms key 3's ref bit.
  SubQObjectives got;
  ASSERT_TRUE(cache.Lookup(base + 3 * stride, &got));
  // Next eviction must skip the two referenced entries (16 at window
  // position 0, 3 at position 3) and take key 1 — the first clear bit.
  cache.Insert(base + 17 * stride, SubQObjectives{});
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_TRUE(cache.Lookup(base + 16 * stride, &got));
  EXPECT_TRUE(cache.Lookup(base + 3 * stride, &got));
  EXPECT_TRUE(cache.Lookup(base + 17 * stride, &got));
  EXPECT_FALSE(cache.Lookup(base + 1 * stride, &got));
}

TEST(SharedEvalCacheTest, SaturationEvictsAndKeepsOccupancyBounded) {
  SharedEvalCache cache(1024);
  for (uint64_t k = 2; k < 50000; ++k) {
    cache.Insert(k, SubQObjectives{});
    // The entry just published is always findable right after.
    SubQObjectives got;
    if (k % 9973 == 0) {
      EXPECT_TRUE(cache.Lookup(k, &got));
    }
  }
  EXPECT_GT(cache.evictions(), 0u);
  // Single-threaded there is always an evictable entry: never a drop.
  EXPECT_EQ(cache.drops(), 0u);
  EXPECT_LE(cache.occupancy(), cache.capacity());
}

TEST(SharedEvalCacheTest, RoundTripsKeysFromTheWholeHashRange) {
  SharedEvalCache cache(8 * 1024);
  EXPECT_EQ(cache.capacity(), 8u * 1024u);
  // Keys spread over the full 64-bit range.
  Rng rng(11);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.Next());
  for (uint64_t k : keys) cache.Insert(k, ValueOf(k));
  for (uint64_t k : keys) {
    SubQObjectives got;
    ASSERT_TRUE(cache.Lookup(k, &got)) << "key " << k;
    EXPECT_EQ(got.analytical_latency, ValueOf(k).analytical_latency);
    EXPECT_EQ(got.io_bytes, ValueOf(k).io_bytes);
    EXPECT_EQ(got.cost, ValueOf(k).cost);
  }
  EXPECT_EQ(cache.hits(), 500u);
  EXPECT_EQ(cache.occupancy(), 500u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 1.0);
}

TEST(SharedEvalCacheTest, MissesAreCounted) {
  SharedEvalCache cache(4 * 1024);
  SubQObjectives got;
  EXPECT_FALSE(cache.Lookup(123, &got));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

TEST(SharedEvalCacheTest, SlotCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SharedEvalCache(5 * 1024).capacity(), 8u * 1024u);
  EXPECT_EQ(SharedEvalCache(1u << 17).capacity(), size_t{1} << 17);
  // Never below 1024 slots.
  EXPECT_EQ(SharedEvalCache(3).capacity(), 1024u);
}

// The TSan target for the service: concurrent writers and readers over a
// deliberately small cache, so insert races, seqlock-guarded reads, and
// CLOCK eviction all fire constantly. Correctness claim: a Lookup either
// misses or returns the exact pure-function payload of its key.
TEST(SharedEvalCacheTest, ConcurrentStressNeverTearsValues) {
  SharedEvalCache cache(2048);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  // Key space ~4x the slot count: heavy eviction pressure, frequent
  // same-key collisions between threads.
  constexpr uint64_t kKeySpace = 8192;

  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Spread keys across the hash range so every slot sees traffic.
        const uint64_t key =
            HashCombine(0xABCD, rng.Next() % kKeySpace) | 2;
        if (i % 3 == 0) {
          cache.Insert(key, ValueOf(key));
        } else {
          SubQObjectives got;
          if (cache.Lookup(key, &got)) {
            hits.fetch_add(1, std::memory_order_relaxed);
            const SubQObjectives want = ValueOf(key);
            if (got.analytical_latency != want.analytical_latency ||
                got.io_bytes != want.io_bytes || got.cost != want.cost) {
              torn.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(torn.load(), 0u);
  // Sanity: the workload actually exercised the cache.
  EXPECT_GT(hits.load(), 0u);
  // The per-thread counter stripes lose no lookup.
  EXPECT_EQ(cache.hits(), hits.load());
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads) *
                (kOpsPerThread - (kOpsPerThread + 2) / 3));
  EXPECT_GT(cache.occupancy(), 0u);
  EXPECT_LE(cache.occupancy(), cache.capacity());
}

}  // namespace
}  // namespace sparkopt
