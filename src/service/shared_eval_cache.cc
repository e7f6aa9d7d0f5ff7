#include "service/shared_eval_cache.h"

#include "obs/trace.h"

namespace sparkopt {

// ---- StripedCounter ----------------------------------------------------

namespace {

size_t ThisThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace

void StripedCounter::Add(uint64_t n) {
  stripes_[ThisThreadStripe() % kStripes].n.fetch_add(
      n, std::memory_order_relaxed);
}

uint64_t StripedCounter::value() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) total += s.n.load(std::memory_order_relaxed);
  return total;
}

// ---- SharedEvalCache ---------------------------------------------------

SharedEvalCache::SharedEvalCache(size_t slots) {
  size_t cap = 1024;
  while (cap < slots) cap <<= 1;
  slots_ = std::make_unique<Slot[]>(cap);
  refs_ = std::make_unique<std::atomic<uint8_t>[]>(cap);
  mask_ = cap - 1;
}

bool SharedEvalCache::Lookup(uint64_t key, SubQObjectives* out) {
  const bool hit = Find(key, out);
  (hit ? hits_ : misses_).Add(1);
  return hit;
}

bool SharedEvalCache::Find(uint64_t key, SubQObjectives* out) {
  if (key <= kBusy) key ^= 0x9E3779B97F4A7C15ULL;
  for (int d = 0; d < kMaxProbe; ++d) {
    const size_t idx = (key + d) & mask_;
    Slot& slot = slots_[idx];
    const uint64_t tag = slot.tag.load(std::memory_order_acquire);
    if (tag == key) {
      // Seqlock-style read: load the payload, then re-check the tag. A
      // concurrent eviction republishes the slot as kBusy first, so a
      // stable tag across the fence proves the three loads saw one
      // consistent entry.
      const double latency = slot.latency.load(std::memory_order_relaxed);
      const double io = slot.io_bytes.load(std::memory_order_relaxed);
      const double cost = slot.cost.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.tag.load(std::memory_order_relaxed) != key) return false;
      out->analytical_latency = latency;
      out->io_bytes = io;
      out->cost = cost;
      // Set the bit only when clear: a store on every hit would take the
      // line away from every other session reading the same entry.
      std::atomic<uint8_t>& ref = refs_[idx];
      if (ref.load(std::memory_order_relaxed) == 0) {
        ref.store(1, std::memory_order_relaxed);
      }
      return true;
    }
    if (tag == kEmpty) return false;
    // kBusy or a different key: keep probing.
  }
  return false;
}

void SharedEvalCache::Insert(uint64_t key, const SubQObjectives& value) {
  if (key <= kBusy) key ^= 0x9E3779B97F4A7C15ULL;
  auto publish = [&](size_t idx) {
    Slot& slot = slots_[idx];
    slot.latency.store(value.analytical_latency, std::memory_order_relaxed);
    slot.io_bytes.store(value.io_bytes, std::memory_order_relaxed);
    slot.cost.store(value.cost, std::memory_order_relaxed);
    refs_[idx].store(1, std::memory_order_relaxed);
    slot.tag.store(key, std::memory_order_release);
  };
  // Pass 1: take an empty slot (or find the key already present).
  for (int d = 0; d < kMaxProbe; ++d) {
    const size_t idx = (key + d) & mask_;
    Slot& slot = slots_[idx];
    uint64_t tag = slot.tag.load(std::memory_order_acquire);
    if (tag == key) return;  // already inserted by a concurrent thread
    if (tag != kEmpty) continue;
    uint64_t expected = kEmpty;
    if (slot.tag.compare_exchange_strong(expected, kBusy,
                                         std::memory_order_acq_rel)) {
      publish(idx);
      size_.Add(1);
      return;
    }
    if (expected == key) return;
    // Lost the race to someone inserting a different key; keep probing.
  }
  // Probe window full: CLOCK second-chance replacement. The first sweep
  // clears reference bits of recently-touched entries; the second sweep
  // claims the first entry whose bit is still clear. Occupancy is
  // unchanged (a published entry is replaced in place).
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int d = 0; d < kMaxProbe; ++d) {
      const size_t idx = (key + d) & mask_;
      Slot& slot = slots_[idx];
      uint64_t tag = slot.tag.load(std::memory_order_acquire);
      if (tag == key) return;
      if (tag == kEmpty || tag == kBusy) continue;  // mid-write elsewhere
      if (refs_[idx].load(std::memory_order_relaxed) != 0) {
        refs_[idx].store(0, std::memory_order_relaxed);
        continue;
      }
      if (slot.tag.compare_exchange_strong(tag, kBusy,
                                           std::memory_order_acq_rel)) {
        publish(idx);
        evictions_.Add(1);
        return;
      }
      // Raced with another evictor on this slot; move on.
    }
  }
  // Every slot in the window was mid-write or repeatedly raced: give up
  // (the value is recomputable) but count it.
  drops_.Add(1);
}

double SharedEvalCache::hit_rate() const {
  const double h = static_cast<double>(hits());
  const double m = static_cast<double>(misses());
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

void SharedEvalCache::PublishGauges() const {
  obs::GaugeSet("service.eval_cache_occupancy_frac",
                static_cast<double>(occupancy()) /
                    static_cast<double>(capacity()));
  obs::GaugeSet("service.eval_cache_hit_rate", hit_rate());
  const double m = static_cast<double>(misses());
  obs::GaugeSet("service.eval_cache_drop_rate",
                m > 0.0 ? static_cast<double>(drops()) / m : 0.0);
  obs::GaugeSet("service.eval_cache_evictions",
                static_cast<double>(evictions()));
}

}  // namespace sparkopt
