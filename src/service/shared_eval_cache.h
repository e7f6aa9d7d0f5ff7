#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "model/subq_evaluator.h"

/// \file shared_eval_cache.h
/// \brief Cross-query, cross-session evaluation memo shared by every
/// concurrent tuning session of the service — the only cache of
/// evaluation results in the system. Direct solves evaluate uncached; the
/// models' per-solve stage tables (model/stage_table.h) keep stages, not
/// results (see DESIGN.md §9).
///
/// One lock-free open-addressing table: seqlock reads, second-chance
/// eviction, so the cache is capacity-bounded with real replacement
/// rather than drop-on-full.
///
/// Keys must be salted per (artifact version, query identity) by the
/// caller (see CachedSubQModel) — raw evaluation keys would collide
/// across queries that share subQ ids.

namespace sparkopt {

/// \brief Event counter that concurrent threads bump without sharing a
/// cache line: each thread adds to a stripe of its own (threads take
/// stripes round-robin on first use) and value() sums the stripes.
///
/// The cache counts every lookup and every insert. One plain atomic per
/// count would move its line, and the read-only table pointer beside it,
/// between the cores of two sessions looking up at once on nearly every
/// call, so a session's solve time would depend on whether the other is
/// busy: on a 4-vCPU Xeon host an all-hit lookup measured about 18 ns
/// from one thread and 90-150 ns each from two that way, and about 20 ns
/// either way striped.
class StripedCounter {
 public:
  void Add(uint64_t n);
  uint64_t value() const;

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> n{0};
  };
  static constexpr size_t kStripes = 8;
  Stripe stripes_[kStripes];
};

/// \brief Capacity-bounded, thread-safe open-addressing memo table for
/// evaluation results, with second-chance eviction.
///
/// Keys are 64-bit hashes of the full evaluation inputs; values are the
/// three objective doubles. Lock-free: a writer claims a slot by CAS-ing
/// the tag to a busy sentinel, writes the value, then publishes the key
/// with a release store; readers validate seqlock-style — an acquire
/// load of the matching tag, relaxed loads of the three value words, an
/// acquire fence, then a tag re-check. If an eviction republished the
/// slot mid-read the re-check fails and the lookup reports a miss (the
/// value is recomputable, so a spurious miss is merely a little work).
///
/// When the probe window is full, Insert falls back to CLOCK-style
/// second-chance eviction inside the window: each slot has a reference
/// bit set on hit and on insert; a first sweep clears set bits, a second
/// sweep replaces the first slot whose bit is still clear. The bits live
/// in a byte array beside the slots, so a slot is 32 bytes (tag and three
/// values) and a 2^17-slot table takes 4.3 MB. Only
/// under extreme contention (every slot busy or repeatedly raced) does an
/// insert drop. Since evaluation is a pure function of the key's
/// preimage, losing a race, dropping, or evicting merely recomputes a
/// deterministic value — correctness never depends on which thread
/// inserted first or which entry was displaced.
class SharedEvalCache {
 public:
  /// `slots` is rounded up to a power of two (minimum 1024).
  explicit SharedEvalCache(size_t slots);

  /// Thread-safe; counts a hit or a miss. True (and `*out` filled) when
  /// `key` is present. Non-const: a hit touches the slot's second-chance
  /// reference bit.
  bool Lookup(uint64_t key, SubQObjectives* out);
  /// Thread-safe. Inserts, evicting the least-recently-touched slot in
  /// the probe window when it is full (see evictions()); drops only when
  /// every slot in the window is mid-write (see drops()).
  void Insert(uint64_t key, const SubQObjectives& value);

  size_t capacity() const { return mask_ + 1; }
  /// Slots currently holding a published entry.
  size_t occupancy() const { return size_.value(); }
  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  /// Entries displaced by second-chance replacement. A high eviction
  /// rate means the working set exceeds the table; hit rate degrades
  /// gracefully instead of freezing the first-inserted entries.
  uint64_t evictions() const { return evictions_.value(); }
  /// Inserts abandoned because every slot in the probe window was
  /// mid-write or repeatedly raced — rare; the value is recomputable.
  uint64_t drops() const { return drops_.value(); }
  double hit_rate() const;

  /// Publishes "service.eval_cache_{occupancy_frac,hit_rate,drop_rate,
  /// evictions}" obs gauges (no-op without an installed session).
  void PublishGauges() const;

 private:
  // 32 bytes, aligned so that no slot straddles a cache line.
  struct alignas(32) Slot {
    std::atomic<uint64_t> tag{kEmpty};
    // Values are individually atomic so evicting writers never tear a
    // concurrent reader's view; the seqlock tag re-check in Find rejects
    // any read that overlapped a republish.
    std::atomic<double> latency{0.0};
    std::atomic<double> io_bytes{0.0};
    std::atomic<double> cost{0.0};
  };
  static_assert(sizeof(Slot) == 32, "a slot is one tag and three values");
  static constexpr uint64_t kEmpty = 0;
  static constexpr uint64_t kBusy = 1;
  static constexpr int kMaxProbe = 16;

  /// Lookup without the hit/miss count.
  bool Find(uint64_t key, SubQObjectives* out);

  std::unique_ptr<Slot[]> slots_;
  /// Second-chance reference bit of slot i, set on hit and on insert.
  std::unique_ptr<std::atomic<uint8_t>[]> refs_;
  size_t mask_ = 0;
  StripedCounter size_;
  StripedCounter evictions_;
  StripedCounter drops_;
  StripedCounter hits_;
  StripedCounter misses_;
};

}  // namespace sparkopt
