#pragma once

#include <cstddef>
#include <utility>
#include <vector>

/// \file pareto.h
/// \brief Pareto-set primitives used across the optimizer: dominance
/// checks, non-dominated filtering (Kung et al. sort-based algorithm for
/// 2D, staircase sweep for 3D), hypervolume, Weighted-Utopia-Nearest (WUN)
/// recommendation, and the Minkowski-sum merge that underlies HMOOC's
/// divide-and-conquer DAG aggregation (Algorithm 3 in the paper).
///
/// All objectives are minimized. A point with k objectives is a
/// std::vector<double> of size k. Every model and solver produces k = 2
/// or k = 3, and ParetoIndices, Hypervolume and MergeFronts abort on any
/// other k (empty input is always legal).
///
/// This header is the AoS shim over the flat kernel in pareto_flat.h:
/// ParetoIndices, Hypervolume, and MergeFronts delegate to the
/// structure-of-arrays kernel and are bitwise identical — same points,
/// same payload mapping, same stable tie order — to the naive
/// formulations they replaced (the naive merge survives as
/// MergeFrontsNaive, the oracle of the property tests).

namespace sparkopt {

/// One point in objective space. Minimization in every component.
using ObjectiveVector = std::vector<double>;

/// \brief True iff `a` Pareto-dominates `b`: a <= b componentwise and
/// a < b in at least one component (Definition 3.2 in the paper).
bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b);

/// \brief Indices of the non-dominated points in `points`.
///
/// For 2-objective inputs this runs the classical sort-based Kung
/// algorithm in O(n log n); 3-objective inputs take the flat kernel's
/// staircase sweep (same complexity); any other k aborts. Ties:
/// duplicate non-dominated points are all kept (stable order by original
/// index).
std::vector<size_t> ParetoIndices(const std::vector<ObjectiveVector>& points);

/// \brief Filters `points` to its Pareto front (convenience wrapper).
std::vector<ObjectiveVector> ParetoFilter(
    const std::vector<ObjectiveVector>& points);

/// \brief Exact 2D hypervolume of the region dominated by `front` and
/// bounded above by `ref` (the reference/nadir point). Points outside the
/// reference box contribute their clipped part. Returns 0 for an empty
/// front.
double Hypervolume2D(const std::vector<ObjectiveVector>& front,
                     const ObjectiveVector& ref);

/// \brief Hypervolume for k = 2 or 3 objectives (k = ref.size(); any
/// other k aborts); intended for the small fronts (tens of points) this
/// project produces. k = 2 routes to Hypervolume2D, k = 3 to the flat
/// kernel's slab sweep (bitwise identical to the recursive slicing it
/// replaced).
double Hypervolume(const std::vector<ObjectiveVector>& front,
                   const ObjectiveVector& ref);

/// \brief Weighted-Utopia-Nearest recommendation (Section 3.3.2).
///
/// Objectives are min-max normalized over the front; the utopia point is
/// the componentwise minimum (0 after normalization). Returns the index of
/// the front point minimizing the weighted Euclidean distance
/// sqrt(sum_i (w_i * f_i_norm)^2). Returns SIZE_MAX for an empty front.
size_t WeightedUtopiaNearest(const std::vector<ObjectiveVector>& front,
                             const std::vector<double>& weights);

/// \brief A Pareto front where each point carries an opaque payload id
/// (e.g. an index into a configuration table). Used by DAG aggregation.
struct IndexedFront {
  std::vector<ObjectiveVector> points;
  /// payloads[i] identifies the configuration(s) behind points[i]. For
  /// merged fronts this is an index into a caller-maintained combination
  /// table.
  std::vector<size_t> payloads;

  size_t size() const { return points.size(); }
  bool empty() const { return points.empty(); }
};

/// \brief Keeps only the non-dominated entries of `front` (points and
/// payloads filtered consistently).
IndexedFront FilterDominated(IndexedFront front);

/// \brief Minkowski-sum merge of two fronts (Algorithm 3): sums every
/// |a| x |b| combination of objective vectors and keeps the Pareto front
/// (the non-dominated multiset, duplicates included), ordered by
/// cross-product index i * |b| + j. The output-sensitive flat kernel
/// (pareto_flat.h) does the work, so the product is never materialized.
/// Either front empty: returns an empty front; otherwise k must be 2 or
/// 3.
///
/// Payload contract: each surviving point originates from one
/// (a-point, b-point) combination. When `combo_out` is non-null the pair
/// (a.payloads[i], b.payloads[j]) of the p-th survivor is **appended**
/// to `*combo_out` (empty input payloads degrade to positions), and
/// `out.payloads[p]` is the index of that row in the grown table — i.e.
/// combo_out->size() before the call, plus p. Appending (rather than
/// overwriting) lets a caller chain merges over one combination table:
/// a payload always resolves to the table row that reconstructs its
/// full combination. With `combo_out == nullptr` the payloads still
/// number survivors 0..n-1 against an imaginary empty table.
///
/// By Proposition B.1, Pf(Pf(F) ⊕ Pf(G)) = Pf(F x G), so merging the
/// children's fronts loses no query-level Pareto solution.
IndexedFront MergeFronts(const IndexedFront& a, const IndexedFront& b,
                         std::vector<std::pair<size_t, size_t>>* combo_out);

/// \brief Reference implementation of MergeFronts that materializes the
/// full cross product before filtering. Identical output contract; the
/// sums are taken for any k, the filter is ParetoIndices (so k = 2 or
/// 3). Kept as the oracle for the flat kernel's bitwise-equivalence
/// property tests; production call sites use MergeFronts.
IndexedFront MergeFrontsNaive(const IndexedFront& a, const IndexedFront& b,
                              std::vector<std::pair<size_t, size_t>>* combo_out);

}  // namespace sparkopt
