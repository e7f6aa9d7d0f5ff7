#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file pareto_flat.h
/// \brief The flat Pareto kernel: allocation-free structure-of-arrays
/// primitives for the dominant 2- and 3-objective cases.
///
/// Every MOO solver in this repo bottoms out in non-dominated filtering
/// and Minkowski-sum merging (HMOOC1's divide-and-conquer DAG
/// aggregation, Algorithm 3), and the benches score 2-D fronts by
/// hypervolume; the AoS `ObjectiveVector` representation pays one heap
/// allocation per point for each of them. This kernel keeps a front as
/// contiguous arrays (x, y[, z], payload), reuses caller-owned scratch
/// buffers, and never materializes the |a| x |b| cross product of a
/// merge. Filtering and merging come in k = 2 and k = 3 forms;
/// hypervolume is k = 2 only, because nothing scores a 3-D front.
///
/// Semantics contract (shared with common/pareto.h): all objectives are
/// minimized; a "front" is the *non-dominated multiset* of its input —
/// exact duplicates of a non-dominated point are all kept — and every
/// operation preserves the caller's point order (for an uncapped merge:
/// the cross-product order i * |b| + j). FlatMerge2/FlatMerge3 are the
/// only merge: an uncapped one is bitwise identical to the reference
/// `MergeFrontsNaive` (common/pareto.h), points and (i, j) pairs alike,
/// which `tests/common/pareto_flat_test.cc` and
/// `tests/common/pareto_flat3_test.cc` pin.

namespace sparkopt {

/// \brief A 2-objective front in structure-of-arrays layout.
///
/// `x[i]`/`y[i]` are the two (minimized) objectives of point i;
/// `payload[i]` is an opaque caller id (combination-table row, pool
/// index, candidate index). The three arrays always have equal size.
struct Front2 {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<size_t> payload;

  size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }

  void clear() {
    x.clear();
    y.clear();
    payload.clear();
  }
  void reserve(size_t n) {
    x.reserve(n);
    y.reserve(n);
    payload.reserve(n);
  }
  void Append(double px, double py, size_t id) {
    x.push_back(px);
    y.push_back(py);
    payload.push_back(id);
  }
};

/// \brief A 3-objective front in structure-of-arrays layout.
///
/// The k = 3 sibling of Front2: `x[i]`/`y[i]`/`z[i]` are the three
/// (minimized) objectives of point i, `payload[i]` an opaque caller id.
struct Front3 {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  std::vector<size_t> payload;

  size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }

  void clear() {
    x.clear();
    y.clear();
    z.clear();
    payload.clear();
  }
  void reserve(size_t n) {
    x.reserve(n);
    y.reserve(n);
    z.reserve(n);
    payload.reserve(n);
  }
  void Append(double px, double py, double pz, size_t id) {
    x.push_back(px);
    y.push_back(py);
    z.push_back(pz);
    payload.push_back(id);
  }
};

/// One surviving cell of a Minkowski merge: positions into the two input
/// fronts (not payloads — the caller maps positions however it likes).
struct MergePair {
  uint32_t i = 0;  ///< position in front `a`
  uint32_t j = 0;  ///< position in front `b`
};

/// \brief Reusable scratch for the kernel. Create one per thread (or per
/// solver task) and pass it to every call; buffers grow to the
/// high-water mark and are never shrunk, so steady-state kernel calls
/// perform no allocation. Contents are invalidated by the next call
/// that uses them (`pairs` in particular: consume it before the next
/// FlatMerge2 on the same scratch).
struct ParetoScratch {
  /// Output of the last FlatMerge2/FlatMerge3: one (i, j) position pair
  /// per emitted point, aligned with the output front — in cross-product
  /// order when the merge kept every point, in the thinned front's
  /// (x, y[, z], cross-product) order when `cap` thinned it.
  std::vector<MergePair> pairs;

  // -- internal buffers -------------------------------------------------
  /// A pair of runs in a merge sweep, standing for the identical cells
  /// of their cross product.
  struct HeapCell {
    double x = 0.0;  ///< sum x (heap key)
    double y = 0.0;  ///< sum y
    uint32_t i = 0;  ///< run index in a
    uint32_t j = 0;  ///< run index in b
  };
  std::vector<HeapCell> heap;
  std::vector<HeapCell> group;
  std::vector<HeapCell> kept_pairs;  ///< kept run pairs, in sweep order
  std::vector<uint32_t> order;    ///< generic index-sort buffer
  std::vector<uint32_t> kept;     ///< kept positions buffer
  std::vector<uint64_t> keys;     ///< expanded cross-product keys
  /// SoA staging. A merge sorts each input by (x, y[, z], position) and
  /// collapses every run of exact duplicates to one entry here.
  std::vector<double> ax, ay;
  std::vector<double> bx, by;
  std::vector<uint32_t> amap, bmap;  ///< sorted position -> original
  /// Merge run bounds: run u of a spans sorted positions
  /// [arun[u], arun[u + 1]); likewise brun for b.
  std::vector<uint32_t> arun, brun;

  // -- k = 3 buffers ----------------------------------------------------
  struct HeapCell3 {
    double x = 0.0;  ///< sum x (heap key)
    double y = 0.0;  ///< sum y
    double z = 0.0;  ///< sum z
    uint32_t i = 0;  ///< run index in a
    uint32_t j = 0;  ///< run index in b
  };
  std::vector<HeapCell3> heap3;
  std::vector<HeapCell3> group3;
  std::vector<HeapCell3> kept_pairs3;  ///< kept run pairs, (x, y, z) order
  std::vector<double> az, bz;  ///< third-axis staging
  /// (y, z) minima staircase of kept points: sy strictly ascending, sz
  /// strictly descending. Shared by the 3-D filter and merge.
  std::vector<double> sy, sz;
  /// (x, y) minima staircase of the 2-D filter. Its own buffers, because
  /// FlatMerge3 runs the 2-D filter on its groups while it holds sy/sz.
  std::vector<double> stair_x, stair_y;
  std::vector<double> gy, gz;  ///< equal-sum-x group staging
};

/// \brief Non-dominated positions of the multiset {(x[i], y[i])}.
///
/// Appends to `*kept` (cleared first) the positions of all points not
/// strictly dominated by any other point, in ascending position order —
/// the same set and order `ParetoIndices` produces for 2-objective
/// input. No sort: one sweep in position order builds the minima
/// staircase of the input (binary search plus erase per point), and a
/// second keeps every position whose point is on it. O(n log h) for a
/// staircase of h points — O(n) on a batch of repeats of one point — and
/// no allocation beyond scratch growth.
void FlatParetoPositions(const double* x, const double* y, size_t n,
                         std::vector<uint32_t>* kept, ParetoScratch* scratch);

/// \brief Output-sensitive Minkowski-sum merge (Algorithm 3 without the
/// cross product), optionally thinned.
///
/// The kept set K is the non-dominated multiset of
/// {(a.x[i] + b.x[j], a.y[i] + b.y[j])}. When |K| <= cap or cap < 2,
/// writes all of K to `*out` (cleared first) in cross-product order
/// (i * b.size() + j ascending) — bitwise identical to materializing the
/// product and filtering with `ParetoIndices`. Otherwise writes the
/// `cap` points at ranks t * (|K| - 1) / (cap - 1), t = 0..cap-1, of K
/// sorted by (x, y, cross-product order): evenly spaced, extremes kept.
/// Either way `out->payload[p] = p` and `scratch->pairs[p]` holds point
/// p's originating (i, j) positions; every sum is recomputed from the
/// inputs with the naive path's expression.
///
/// The sweep sorts both inputs by (x, y) and collapses each run of exact
/// duplicates to one entry, pushes each a-run's first viable b-run into a
/// min-heap keyed on sum-x, and pops run pairs in sum-x groups, advancing
/// each row past provably-dominated run pairs by binary search (a
/// front's y is monotone in its sorted x). With Pareto-front inputs of
/// n and m distinct points and r distinct output points this performs
/// O((n + m + r + d) log(n + m)) heap work, where d — the dominated run
/// pairs the heap still surfaces — is small in practice instead of n * m;
/// duplicates cost only the staging sort and the points emitted. Inputs
/// that are not fronts are still merged correctly (the binary-search
/// skip just disables itself on the non-monotone side).
void FlatMerge2(const Front2& a, const Front2& b, Front2* out,
                ParetoScratch* scratch, size_t cap);

/// \brief Exact hypervolume dominated by the staircase of {(x, y)} and
/// bounded by (ref_x, ref_y). Accepts any point multiset (dominated
/// points contribute nothing); bitwise identical to `Hypervolume2D` on
/// the same input. O(n log n), scratch-buffered.
double FlatHypervolume2(const double* x, const double* y, size_t n,
                        double ref_x, double ref_y, ParetoScratch* scratch);

// ---- k = 3 primitives ----------------------------------------------------
//
// Each is the exact 3-objective sibling of the 2-D operation above, with
// the same semantics contract: non-dominated *multiset* (exact
// duplicates kept), stable caller order, bitwise-identical points to the
// naive formulations (a pairwise dominance sweep, `MergeFrontsNaive`).
// The sweep replaces the 2-D running-min with a (y, z) minima staircase:
// after sorting by (x, y, z, position), a point is dominated iff some
// *kept* lexicographically earlier point has y' <= y and z' <= z (x' <=
// x is implied by the sort, and any dominated witness is itself covered
// by a kept one, so querying the kept staircase is sufficient).

/// \brief Non-dominated positions of the multiset {(x[i], y[i], z[i])};
/// appended to `*kept` (cleared first) in ascending position order — the
/// same set and order `ParetoIndices` produces for 3-objective input.
/// O(n log n) comparisons plus staircase maintenance (O(n) worst-case
/// shifts per insert, amortized small for front-like inputs).
void FlatParetoPositions3(const double* x, const double* y, const double* z,
                          size_t n, std::vector<uint32_t>* kept,
                          ParetoScratch* scratch);

/// \brief Output-sensitive 3-D Minkowski-sum merge, optionally thinned.
///
/// The same contract as FlatMerge2 on the non-dominated multiset of
/// {(a.x[i]+b.x[j], a.y[i]+b.y[j], a.z[i]+b.z[j])}: all of it in
/// cross-product order when it has at most `cap` points (or cap < 2),
/// else the `cap` evenly spaced ranks of its (x, y, z, cross-product)
/// order; `scratch->pairs` aligned with the output.
///
/// The sweep collapses each input's runs of exact duplicates, then
/// enumerates run pairs grouped by nondecreasing sum-x via a per-row
/// min-heap; each equal-sum-x group is filtered internally with the 2-D
/// kernel on (sum-y, sum-z) (equal first coordinates reduce dominance to
/// the remaining two), then checked against the kd staircase of all kept
/// run pairs from strictly smaller sum-x (weak (y, z)-dominance there is
/// strict overall). Never materializes the |a| x |b| product; O(nm
/// log(n+m)) worst case in the distinct points n and m, but
/// output-sensitive in the staircase pruning for front-shaped inputs.
void FlatMerge3(const Front3& a, const Front3& b, Front3* out,
                ParetoScratch* scratch, size_t cap);

}  // namespace sparkopt
