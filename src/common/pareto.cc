#include "common/pareto.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/pareto_flat.h"

namespace sparkopt {

namespace {

// Per-thread kernel scratch for the AoS shims: solver worker threads
// call these concurrently, and the buffers reach a steady state after
// the first few calls on each thread.
ParetoScratch& TlsScratch() {
  thread_local ParetoScratch scratch;
  return scratch;
}

}  // namespace

bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b) {
  bool strictly_better = false;
  const size_t k = a.size();
  for (size_t i = 0; i < k; ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

void ParetoPositions(const std::vector<ObjectiveVector>& points,
                     std::vector<uint32_t>* kept) {
  kept->clear();
  if (points.empty()) return;
  const size_t n = points.size();
  const size_t k = points[0].size();
  // Every model and solver produces 2 or 3 objectives; the kernels
  // support exactly those.
  SPARKOPT_CHECK(k == 2 || k == 3)
      << "ParetoIndices supports 2 or 3 objectives, got " << k;
  // One SoA staging pass into the per-thread scratch, then the kernel:
  // the index-order staircase filter for k = 2, the sorted staircase
  // sweep for k = 3 (the property suites pin both against the quadratic
  // reference).
  ParetoScratch& scratch = TlsScratch();
  scratch.ax.resize(n);
  scratch.ay.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch.ax[i] = points[i][0];
    scratch.ay[i] = points[i][1];
  }
  if (k == 2) {
    FlatParetoPositions(scratch.ax.data(), scratch.ay.data(), n, kept,
                        &scratch);
    return;
  }
  scratch.az.resize(n);
  for (size_t i = 0; i < n; ++i) scratch.az[i] = points[i][2];
  FlatParetoPositions3(scratch.ax.data(), scratch.ay.data(),
                       scratch.az.data(), n, kept, &scratch);
}

std::vector<size_t> ParetoIndices(const std::vector<ObjectiveVector>& points) {
  std::vector<uint32_t>& kept = TlsScratch().kept;
  ParetoPositions(points, &kept);
  return {kept.begin(), kept.end()};
}

std::vector<ObjectiveVector> ParetoFilter(
    const std::vector<ObjectiveVector>& points) {
  std::vector<ObjectiveVector> out;
  for (size_t i : ParetoIndices(points)) out.push_back(points[i]);
  return out;
}

double Hypervolume2D(const std::vector<ObjectiveVector>& front,
                     const ObjectiveVector& ref) {
  if (front.empty()) return 0.0;
  // Staircase sweep in the flat kernel: dominated/duplicate points fail
  // the strict-improvement test there, so no filter or dedup pass is
  // needed and the accumulated terms are identical.
  ParetoScratch& scratch = TlsScratch();
  scratch.ax.resize(front.size());
  scratch.ay.resize(front.size());
  for (size_t i = 0; i < front.size(); ++i) {
    scratch.ax[i] = front[i][0];
    scratch.ay[i] = front[i][1];
  }
  return FlatHypervolume2(scratch.ax.data(), scratch.ay.data(), front.size(),
                          ref[0], ref[1], &scratch);
}

size_t WeightedUtopiaNearest(const std::vector<ObjectiveVector>& front,
                             const std::vector<double>& weights) {
  if (front.empty()) return std::numeric_limits<size_t>::max();
  const size_t k = front[0].size();
  ObjectiveVector lo(k, std::numeric_limits<double>::infinity());
  ObjectiveVector hi(k, -std::numeric_limits<double>::infinity());
  for (const auto& p : front) {
    for (size_t i = 0; i < k; ++i) {
      lo[i] = std::min(lo[i], p[i]);
      hi[i] = std::max(hi[i], p[i]);
    }
  }
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < front.size(); ++j) {
    double d = 0.0;
    for (size_t i = 0; i < k; ++i) {
      const double range = hi[i] - lo[i];
      const double norm = range > 0 ? (front[j][i] - lo[i]) / range : 0.0;
      const double w = i < weights.size() ? weights[i] : 1.0;
      d += (w * norm) * (w * norm);
    }
    if (d < best_d) {
      best_d = d;
      best = j;
    }
  }
  return best;
}

std::vector<ObjectiveVector> MergeFrontsNaive(
    const std::vector<ObjectiveVector>& a,
    const std::vector<ObjectiveVector>& b, std::vector<MergePair>* pairs) {
  std::vector<ObjectiveVector> product;
  product.reserve(a.size() * b.size());
  for (const ObjectiveVector& pa : a) {
    for (const ObjectiveVector& pb : b) {
      ObjectiveVector sum(pa.size());
      for (size_t d = 0; d < sum.size(); ++d) sum[d] = pa[d] + pb[d];
      product.push_back(std::move(sum));
    }
  }
  std::vector<ObjectiveVector> out;
  pairs->clear();
  for (size_t idx : ParetoIndices(product)) {
    out.push_back(std::move(product[idx]));
    pairs->push_back({static_cast<uint32_t>(idx / b.size()),
                      static_cast<uint32_t>(idx % b.size())});
  }
  return out;
}

}  // namespace sparkopt
