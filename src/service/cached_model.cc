#include "service/cached_model.h"

#include <cmath>
#include <utility>

#include "common/rng.h"

namespace sparkopt {

namespace {

bool AllFinite(const ObjectiveVector& obj) {
  for (double v : obj) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

uint64_t CachedSubQModel::KeyFor(int subq,
                                 const std::vector<double>& conf) const {
  // Bitwise hash of the raw conf, word by word. Over n distinct keys a
  // 64-bit hash collides with probability ~n^2/2^64: negligible at the
  // 10^4-10^6 evaluations a workload performs. SharedEvalCache indexes
  // slots by the key's low bits, which HashCombine mixes weakly, so the
  // salted key is finished with a full-avalanche mix.
  const uint64_t h = HashWords(conf.data(), conf.size());
  return Mix64(HashCombine(salt_,
                           HashCombine(h, static_cast<uint64_t>(subq))));
}

void CachedSubQModel::FromCached(const SubQObjectives& v,
                                 ObjectiveVector* out) const {
  // Storage mapping (see MaybeInsert): latency, cost, [third objective].
  const int k = inner_->num_objectives();
  out->resize(static_cast<size_t>(k));
  (*out)[0] = v.analytical_latency;
  (*out)[1] = v.cost;
  if (k == 3) (*out)[2] = v.io_bytes;
}

void CachedSubQModel::MaybeInsert(uint64_t key,
                                  const ObjectiveVector& obj) const {
  if (!AllFinite(obj)) return;  // NaN or inf: recompute, never memoize
  SubQObjectives v;
  v.analytical_latency = obj[0];
  v.cost = obj[1];
  v.io_bytes = obj.size() > 2 ? obj[2] : 0.0;
  cache_->Insert(key, v);
}

ObjectiveVector CachedSubQModel::Evaluate(
    int subq, const std::vector<double>& conf) const {
  const uint64_t key = KeyFor(subq, conf);
  SubQObjectives cached;
  if (cache_->Lookup(key, &cached)) {
    shared_hits_.fetch_add(1, std::memory_order_relaxed);
    ObjectiveVector obj;
    FromCached(cached, &obj);
    return obj;
  }
  shared_misses_.fetch_add(1, std::memory_order_relaxed);
  const ObjectiveVector obj = inner_->Evaluate(subq, conf);
  MaybeInsert(key, obj);
  return obj;
}

void CachedSubQModel::EvaluateBatch(
    int subq, const std::vector<std::vector<double>>& confs,
    std::vector<ObjectiveVector>* out) const {
  const size_t n = confs.size();
  out->resize(n);
  if (n == 0) return;

  // Per-thread buffers: once warm, a batch allocates nothing per row
  // (hits are written into `out` in place, see moo/problem.h).
  thread_local std::vector<uint64_t> keys;
  thread_local std::vector<size_t> miss_idx;
  thread_local RowList miss_confs;
  thread_local RowList miss_out;
  keys.resize(n);
  miss_idx.clear();
  for (size_t i = 0; i < n; ++i) {
    keys[i] = KeyFor(subq, confs[i]);
    SubQObjectives cached;
    if (cache_->Lookup(keys[i], &cached)) {
      FromCached(cached, &(*out)[i]);
    } else {
      miss_idx.push_back(i);
    }
  }
  const size_t misses = miss_idx.size();
  shared_hits_.fetch_add(n - misses, std::memory_order_relaxed);
  shared_misses_.fetch_add(misses, std::memory_order_relaxed);
  if (misses == 0) return;

  if (misses == n) {
    // All-miss batch: the inner model takes it as it is and writes `out`.
    inner_->EvaluateBatch(subq, confs, out);
    for (size_t i = 0; i < n; ++i) MaybeInsert(keys[i], (*out)[i]);
    return;
  }
  // Escalate only the misses. Both concrete models are per-row bitwise
  // independent of batch composition, so the subset batch returns
  // exactly what a full batch would have at those rows.
  miss_confs.Resize(misses);
  miss_out.Resize(misses);
  for (size_t j = 0; j < misses; ++j) {
    const std::vector<double>& conf = confs[miss_idx[j]];
    miss_confs.rows[j].assign(conf.begin(), conf.end());
  }
  inner_->EvaluateBatch(subq, miss_confs.rows, &miss_out.rows);
  for (size_t j = 0; j < misses; ++j) {
    MaybeInsert(keys[miss_idx[j]], miss_out.rows[j]);
    // Swap, not copy: both rows keep their storage for the next batch.
    std::swap((*out)[miss_idx[j]], miss_out.rows[j]);
  }
}

}  // namespace sparkopt
