#include "service/cached_model.h"

#include <cmath>

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

ObjectiveVector CachedSubQModel::FromCached(const SubQObjectives& v) const {
  // Storage mapping (see MaybeInsert): latency, cost, [third objective].
  if (inner_->num_objectives() == 3) {
    return {v.analytical_latency, v.cost, v.io_bytes};
  }
  return {v.analytical_latency, v.cost};
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
    return FromCached(cached);
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
  out->assign(n, ObjectiveVector());
  if (n == 0) return;

  std::vector<uint64_t> keys(n);
  std::vector<size_t> miss_idx;
  miss_idx.reserve(n);
  uint64_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = KeyFor(subq, confs[i]);
    SubQObjectives cached;
    if (cache_->Lookup(keys[i], &cached)) {
      (*out)[i] = FromCached(cached);
      ++hits;
    } else {
      miss_idx.push_back(i);
    }
  }
  shared_hits_.fetch_add(hits, std::memory_order_relaxed);
  shared_misses_.fetch_add(miss_idx.size(), std::memory_order_relaxed);
  if (miss_idx.empty()) return;

  // Escalate only the misses. Both concrete models are per-row bitwise
  // independent of batch composition, so the subset batch returns
  // exactly what a full batch would have at those rows.
  std::vector<std::vector<double>> miss_confs;
  miss_confs.reserve(miss_idx.size());
  for (size_t i : miss_idx) miss_confs.push_back(confs[i]);
  std::vector<ObjectiveVector> miss_out;
  inner_->EvaluateBatch(subq, miss_confs, &miss_out);
  for (size_t j = 0; j < miss_idx.size(); ++j) {
    MaybeInsert(keys[miss_idx[j]], miss_out[j]);
    (*out)[miss_idx[j]] = std::move(miss_out[j]);
  }
}

}  // namespace sparkopt
