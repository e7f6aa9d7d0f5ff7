#include "moo/dag_aggregation.h"

#include <algorithm>
#include <limits>

#include "analysis/invariants.h"
#include "common/check.h"

namespace sparkopt {

void WeightLadder(int k, int num_weights, std::vector<double>* w) {
  w->clear();
  if (num_weights <= 0) return;
  if (k == 3) {
    int t = 1;
    while ((t + 1) * (t + 2) / 2 < num_weights) ++t;
    for (int a = 0; a <= t; ++a) {
      for (int b = 0; b <= t - a; ++b) {
        w->push_back(static_cast<double>(a) / t);
        w->push_back(static_cast<double>(b) / t);
        w->push_back(static_cast<double>(t - a - b) / t);
      }
    }
    return;
  }
  for (int row = 0; row < num_weights; ++row) {
    const double w0 = num_weights == 1
                          ? 0.5
                          : static_cast<double>(row) / (num_weights - 1);
    w->push_back(w0);
    w->push_back(1.0 - w0);
  }
}

int DagAggregator::AcquireNode() {
  if (!free_.empty()) {
    const int idx = free_.back();
    free_.pop_back();
    nodes_[idx].in_use = true;
    return idx;
  }
  nodes_.emplace_back();  // warm-up only: pool size peaks at tree depth
  nodes_.back().in_use = true;
  return static_cast<int>(nodes_.size()) - 1;
}

void DagAggregator::ReleaseNode(int idx) {
  Node& n = nodes_[idx];
  // clear() keeps the vector capacities — the recycled node serves the
  // next acquisition without reallocating.
  n.f2.clear();
  n.f3.clear();
  n.choice = nullptr;
  n.width = 0;
  n.in_use = false;
  free_.push_back(idx);
}

int DagAggregator::Leaf(const std::vector<SubQEntry>& set, int k) {
  const int idx = AcquireNode();
  Node& node = nodes_[idx];
  node.width = 1;
  int* rows = arena_.AllocArray<int>(set.size());
  // Only the subQ-level Pareto entries can contribute (Prop. 5.1);
  // entries were already filtered, so take them all.
  if (k == 3) {
    node.f3.reserve(set.size());
    for (size_t j = 0; j < set.size(); ++j) {
      node.f3.Append(set[j].f[0], set[j].f[1], set[j].f[2], j);
      rows[j] = set[j].pool_idx;
    }
  } else {
    node.f2.reserve(set.size());
    for (size_t j = 0; j < set.size(); ++j) {
      node.f2.Append(set[j].f[0], set[j].f[1], j);
      rows[j] = set[j].pool_idx;
    }
  }
  node.choice = rows;
  return idx;
}

// Merges two nodes' fronts, thinned to at most `cap` points: the extremes
// and evenly spaced interior points of the lexicographically sorted
// front (ties broken by the remaining axes, then cross-product position,
// for determinism). The kernel picks them without sorting the full
// front. Exact divide-and-conquer merging can otherwise grow
// multiplicatively with the number of subQs (the "total complexity could
// be high" caveat in Appendix B.2).
int DagAggregator::Merge(int a, int b, int k, size_t cap) {
  // Acquire before taking references: the pool vector may grow here.
  const int idx = AcquireNode();
  Node& out = nodes_[idx];
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  out.width = na.width + nb.width;
  if (k == 3) {
    FlatMerge3(na.f3, nb.f3, &out.f3, &scratch_, cap);
  } else {
    FlatMerge2(na.f2, nb.f2, &out.f2, &scratch_, cap);
  }
  const size_t n = NodePoints(out, k);
  int* rows = arena_.AllocArray<int>(n * static_cast<size_t>(out.width));
  int* w = rows;
  for (const MergePair& pair : scratch_.pairs) {
    const int* ra = na.choice + static_cast<size_t>(pair.i) * na.width;
    const int* rb = nb.choice + static_cast<size_t>(pair.j) * nb.width;
    w = std::copy(ra, ra + na.width, w);
    w = std::copy(rb, rb + nb.width, w);
  }
  out.choice = rows;
#ifdef SPARKOPT_VERIFY
  // Every Minkowski-sum merge must hand a mutually non-dominated front to
  // its parent (Algorithm 3 / Proposition B.1).
  std::vector<ObjectiveVector> verify_front;
  verify_front.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    if (k == 3) {
      verify_front.push_back({out.f3.x[p], out.f3.y[p], out.f3.z[p]});
    } else {
      verify_front.push_back({out.f2.x[p], out.f2.y[p]});
    }
  }
  SPARKOPT_VERIFY_FRONT(verify_front, "DagAggregator::Merge");
#endif
  ReleaseNode(a);
  ReleaseNode(b);
  return idx;
}

int DagAggregator::Recurse(const std::vector<std::vector<SubQEntry>>& sets,
                           int lo, int hi, int k, size_t cap) {
  if (lo == hi) return Leaf(sets[lo], k);
  const int mid = (lo + hi) / 2;
  const int left = Recurse(sets, lo, mid, k, cap);
  const int right = Recurse(sets, mid + 1, hi, k, cap);
  return Merge(left, right, k, cap);
}

void DagAggregator::AggregateDc(
    const std::vector<std::vector<SubQEntry>>& sets, int k, size_t cap,
    AggregatedBatch* out) {
  SPARKOPT_CHECK(k == 2 || k == 3) << "DagAggregator supports k in {2, 3}";
  const int m = static_cast<int>(sets.size());
  out->clear();
  out->k = k;
  out->width = m;
  for (const auto& s : sets) {
    if (s.empty()) return;
  }
  arena_.Reset();
  const int root = Recurse(sets, 0, m - 1, k, cap);
  Node& r = nodes_[root];
  const size_t n = NodePoints(r, k);
  out->obj.reserve(n * static_cast<size_t>(k));
  out->choice.reserve(n * static_cast<size_t>(m));
  for (size_t p = 0; p < n; ++p) {
    if (k == 3) {
      out->obj.push_back(r.f3.x[p]);
      out->obj.push_back(r.f3.y[p]);
      out->obj.push_back(r.f3.z[p]);
    } else {
      out->obj.push_back(r.f2.x[p]);
      out->obj.push_back(r.f2.y[p]);
    }
    const int* row = r.choice + p * static_cast<size_t>(m);
    out->choice.insert(out->choice.end(), row, row + m);
  }
  ReleaseNode(root);
}

void DagAggregator::AggregateWeightedSum(
    const std::vector<std::vector<SubQEntry>>& sets, int k, int ws_pairs,
    bool normalize, AggregatedBatch* out) {
  SPARKOPT_CHECK(k == 2 || k == 3) << "DagAggregator supports k in {2, 3}";
  const int m = static_cast<int>(sets.size());
  out->clear();
  out->k = k;
  out->width = m;
  for (const auto& s : sets) {
    if (s.empty()) return;
  }
  arena_.Reset();
  // Per-subQ min-max normalization (normalize_per_subQ in Algorithm 4).
  // With `normalize` off the raw weighted sum is used, which makes every
  // returned point exactly query-level Pareto optimal (Lemma 1).
  double* lo = arena_.AllocArray<double>(static_cast<size_t>(m) * k);
  double* hi = arena_.AllocArray<double>(static_cast<size_t>(m) * k);
  for (int i = 0; i < m; ++i) {
    for (int d = 0; d < k; ++d) {
      lo[i * k + d] = normalize ? 1e300 : 0.0;
      hi[i * k + d] = normalize ? -1e300 : 1.0;
    }
    if (normalize) {
      for (const auto& e : sets[i]) {
        for (int d = 0; d < k; ++d) {
          lo[i * k + d] = std::min(lo[i * k + d], e.f[d]);
          hi[i * k + d] = std::max(hi[i * k + d], e.f[d]);
        }
      }
    }
  }
  WeightLadder(k, ws_pairs, &weights_);
  const double* w = weights_.data();
  const size_t n_weights = weights_.size() / k;

  out->obj.reserve(n_weights * k);
  out->choice.reserve(n_weights * static_cast<size_t>(m));
  for (size_t row = 0; row < n_weights; ++row) {
    const size_t base = out->obj.size();
    for (int d = 0; d < k; ++d) out->obj.push_back(0.0);
    for (int i = 0; i < m; ++i) {
      double best_v = std::numeric_limits<double>::infinity();
      size_t best = 0;
      for (size_t j = 0; j < sets[i].size(); ++j) {
        const auto& f = sets[i][j].f;
        double v = 0.0;
        for (int d = 0; d < k; ++d) {
          const double range = hi[i * k + d] - lo[i * k + d];
          const double nd =
              range > 0 ? (f[d] - lo[i * k + d]) / range : 0.0;
          v += w[row * k + d] * nd;
        }
        if (v < best_v) {
          best_v = v;
          best = j;
        }
      }
      for (int d = 0; d < k; ++d) {
        out->obj[base + d] += sets[i][best].f[d];
      }
      out->choice.push_back(sets[i][best].pool_idx);
    }
  }
}

void DagAggregator::AggregateBoundary(
    const std::vector<std::vector<SubQEntry>>& sets, int k,
    AggregatedBatch* out) {
  SPARKOPT_CHECK(k == 2 || k == 3) << "DagAggregator supports k in {2, 3}";
  const int m = static_cast<int>(sets.size());
  out->clear();
  out->k = k;
  out->width = m;
  for (const auto& s : sets) {
    if (s.empty()) return;
  }
  out->obj.reserve(static_cast<size_t>(k) * k);
  out->choice.reserve(static_cast<size_t>(k) * m);
  for (int obj = 0; obj < k; ++obj) {
    const size_t base = out->obj.size();
    for (int d = 0; d < k; ++d) out->obj.push_back(0.0);
    for (int i = 0; i < m; ++i) {
      size_t best = 0;
      for (size_t j = 1; j < sets[i].size(); ++j) {
        if (sets[i][j].f[obj] < sets[i][best].f[obj]) best = j;
      }
      for (int d = 0; d < k; ++d) {
        out->obj[base + d] += sets[i][best].f[d];
      }
      out->choice.push_back(sets[i][best].pool_idx);
    }
  }
}

}  // namespace sparkopt
