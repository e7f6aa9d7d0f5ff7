#include "common/pareto.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

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

// Every model and solver produces 2 or 3 objectives; the kernels below
// support exactly those.
void CheckObjectiveCount(size_t k, const char* fn) {
  SPARKOPT_CHECK(k == 2 || k == 3)
      << fn << " supports 2 or 3 objectives, got " << k;
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

namespace {

// Sort-based 2D non-dominated filter (Kung et al. 1975), routed through
// the flat kernel: one SoA staging pass replaces the ObjectiveVector
// comparator sort, and the scratch buffers persist per thread.
std::vector<size_t> Pareto2D(const std::vector<ObjectiveVector>& pts) {
  ParetoScratch& scratch = TlsScratch();
  scratch.ax.resize(pts.size());
  scratch.ay.resize(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    scratch.ax[i] = pts[i][0];
    scratch.ay[i] = pts[i][1];
  }
  FlatParetoPositions(scratch.ax.data(), scratch.ay.data(), pts.size(),
                      &scratch.kept, &scratch);
  return {scratch.kept.begin(), scratch.kept.end()};
}

// 3-D filter routed through the flat kernel's staircase sweep (the
// property suite pins it against the quadratic reference).
std::vector<size_t> Pareto3D(const std::vector<ObjectiveVector>& pts) {
  ParetoScratch& scratch = TlsScratch();
  scratch.ax.resize(pts.size());
  scratch.ay.resize(pts.size());
  scratch.az.resize(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    scratch.ax[i] = pts[i][0];
    scratch.ay[i] = pts[i][1];
    scratch.az[i] = pts[i][2];
  }
  FlatParetoPositions3(scratch.ax.data(), scratch.ay.data(), scratch.az.data(),
                       pts.size(), &scratch.kept, &scratch);
  return {scratch.kept.begin(), scratch.kept.end()};
}

}  // namespace

std::vector<size_t> ParetoIndices(const std::vector<ObjectiveVector>& points) {
  if (points.empty()) return {};
  const size_t k = points[0].size();
  CheckObjectiveCount(k, "ParetoIndices");
  return k == 2 ? Pareto2D(points) : Pareto3D(points);
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

double Hypervolume(const std::vector<ObjectiveVector>& front,
                   const ObjectiveVector& ref) {
  if (front.empty()) return 0.0;
  CheckObjectiveCount(ref.size(), "Hypervolume");
  if (ref.size() == 2) return Hypervolume2D(front, ref);
  // Flat slab sweep, bitwise identical to recursive slicing on the last
  // objective (tied slabs have zero depth, so the slicing's tie order
  // never reaches the sum). Stage into the b-side buffers:
  // FlatHypervolume3 uses ax/ay/az as its own internal staging.
  ParetoScratch& scratch = TlsScratch();
  scratch.bx.resize(front.size());
  scratch.by.resize(front.size());
  scratch.bz.resize(front.size());
  for (size_t i = 0; i < front.size(); ++i) {
    scratch.bx[i] = front[i][0];
    scratch.by[i] = front[i][1];
    scratch.bz[i] = front[i][2];
  }
  return FlatHypervolume3(scratch.bx.data(), scratch.by.data(),
                          scratch.bz.data(), front.size(), ref[0], ref[1],
                          ref[2], &scratch);
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

IndexedFront FilterDominated(IndexedFront front) {
  auto keep = ParetoIndices(front.points);
  IndexedFront out;
  out.points.reserve(keep.size());
  out.payloads.reserve(keep.size());
  for (size_t i : keep) {
    out.points.push_back(std::move(front.points[i]));
    if (i < front.payloads.size()) out.payloads.push_back(front.payloads[i]);
  }
  return out;
}

IndexedFront MergeFronts(const IndexedFront& a, const IndexedFront& b,
                         std::vector<std::pair<size_t, size_t>>* combo_out) {
  if (a.empty() || b.empty()) return {};
  const size_t k = a.points[0].size();
  CheckObjectiveCount(k, "MergeFronts");
  if (k == 3) {
    ParetoScratch& scratch = TlsScratch();
    Front3 fa, fb, merged;
    fa.reserve(a.size());
    fb.reserve(b.size());
    for (const auto& p : a.points) fa.Append(p[0], p[1], p[2], 0);
    for (const auto& p : b.points) fb.Append(p[0], p[1], p[2], 0);
    FlatMerge3(fa, fb, &merged, &scratch, /*cap=*/0);

    const size_t combo_base = combo_out != nullptr ? combo_out->size() : 0;
    IndexedFront out;
    out.points.reserve(merged.size());
    out.payloads.reserve(merged.size());
    if (combo_out != nullptr) combo_out->reserve(combo_base + merged.size());
    for (size_t p = 0; p < merged.size(); ++p) {
      out.points.push_back({merged.x[p], merged.y[p], merged.z[p]});
      out.payloads.push_back(combo_base + p);
      if (combo_out != nullptr) {
        const MergePair& pair = scratch.pairs[p];
        combo_out->emplace_back(
            a.payloads.empty() ? pair.i : a.payloads[pair.i],
            b.payloads.empty() ? pair.j : b.payloads[pair.j]);
      }
    }
    return out;
  }

  ParetoScratch& scratch = TlsScratch();
  Front2 fa, fb, merged;
  fa.reserve(a.size());
  fb.reserve(b.size());
  for (const auto& p : a.points) fa.Append(p[0], p[1], 0);
  for (const auto& p : b.points) fb.Append(p[0], p[1], 0);
  FlatMerge2(fa, fb, &merged, &scratch, /*cap=*/0);

  const size_t combo_base = combo_out != nullptr ? combo_out->size() : 0;
  IndexedFront out;
  out.points.reserve(merged.size());
  out.payloads.reserve(merged.size());
  if (combo_out != nullptr) combo_out->reserve(combo_base + merged.size());
  for (size_t p = 0; p < merged.size(); ++p) {
    out.points.push_back({merged.x[p], merged.y[p]});
    out.payloads.push_back(combo_base + p);
    if (combo_out != nullptr) {
      const MergePair& pair = scratch.pairs[p];
      combo_out->emplace_back(
          a.payloads.empty() ? pair.i : a.payloads[pair.i],
          b.payloads.empty() ? pair.j : b.payloads[pair.j]);
    }
  }
  return out;
}

IndexedFront MergeFrontsNaive(
    const IndexedFront& a, const IndexedFront& b,
    std::vector<std::pair<size_t, size_t>>* combo_out) {
  IndexedFront combined;
  std::vector<std::pair<size_t, size_t>> combos;
  combined.points.reserve(a.size() * b.size());
  combos.reserve(a.size() * b.size());
  const size_t k = a.empty() ? 0 : a.points[0].size();
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      ObjectiveVector sum(k);
      for (size_t d = 0; d < k; ++d) {
        sum[d] = a.points[i][d] + b.points[j][d];
      }
      combined.points.push_back(std::move(sum));
      combos.emplace_back(a.payloads.empty() ? i : a.payloads[i],
                          b.payloads.empty() ? j : b.payloads[j]);
    }
  }
  auto keep = ParetoIndices(combined.points);
  const size_t combo_base = combo_out != nullptr ? combo_out->size() : 0;
  IndexedFront out;
  out.points.reserve(keep.size());
  out.payloads.reserve(keep.size());
  if (combo_out != nullptr) combo_out->reserve(combo_base + keep.size());
  for (size_t idx : keep) {
    out.points.push_back(std::move(combined.points[idx]));
    out.payloads.push_back(combo_base + (out.points.size() - 1));
    if (combo_out != nullptr) combo_out->push_back(combos[idx]);
  }
  return out;
}

}  // namespace sparkopt
