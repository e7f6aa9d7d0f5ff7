#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/pareto_flat.h"

/// \file pareto.h
/// \brief Pareto-set primitives used across the optimizer: dominance
/// checks, non-dominated filtering (an index-order staircase sweep for
/// 2D, a sorted staircase sweep for 3D), 2-D hypervolume, and
/// Weighted-Utopia-Nearest (WUN) recommendation, plus the reference
/// Minkowski-sum merge of HMOOC's divide-and-conquer DAG aggregation
/// (Algorithm 3 in the paper).
///
/// All objectives are minimized. A point with k objectives is a
/// std::vector<double> of size k. Every model and solver produces k = 2
/// or k = 3, and ParetoIndices aborts on any other k (empty input is
/// always legal). Hypervolume is 2-D only: the benches score 2-objective
/// fronts, and nothing scores a 3-objective one.
///
/// This header is the AoS shim over the flat kernel in pareto_flat.h:
/// ParetoIndices and Hypervolume2D delegate to the structure-of-arrays
/// kernel and are bitwise identical — same points, same stable tie
/// order — to the naive formulations they replaced. Production merges
/// call FlatMerge2/FlatMerge3 directly; MergeFrontsNaive is the
/// reference they are tested and benchmarked against.

namespace sparkopt {

/// One point in objective space. Minimization in every component.
using ObjectiveVector = std::vector<double>;

/// \brief True iff `a` Pareto-dominates `b`: a <= b componentwise and
/// a < b in at least one component (Definition 3.2 in the paper).
bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b);

/// \brief Indices of the non-dominated points in `points`.
///
/// 2-objective inputs take the flat kernel's index-order staircase
/// filter (O(n log h) for h front points, no sort); 3-objective inputs
/// its sorted staircase sweep (O(n log n)); any other k aborts. Ties:
/// duplicate non-dominated points are all kept (stable order by original
/// index).
std::vector<size_t> ParetoIndices(const std::vector<ObjectiveVector>& points);

/// \brief ParetoIndices into a caller-owned buffer (cleared first): the
/// same positions in the same order, and no allocation once `kept` and
/// the calling thread's kernel scratch are warm. The solver's batch loops
/// use it.
void ParetoPositions(const std::vector<ObjectiveVector>& points,
                     std::vector<uint32_t>* kept);

/// \brief Filters `points` to its Pareto front (convenience wrapper).
std::vector<ObjectiveVector> ParetoFilter(
    const std::vector<ObjectiveVector>& points);

/// \brief Exact 2D hypervolume of the region dominated by `front` and
/// bounded above by `ref` (the reference/nadir point). Points outside the
/// reference box contribute their clipped part. Returns 0 for an empty
/// front.
double Hypervolume2D(const std::vector<ObjectiveVector>& front,
                     const ObjectiveVector& ref);

/// \brief Weighted-Utopia-Nearest recommendation (Section 3.3.2).
///
/// Objectives are min-max normalized over the front; the utopia point is
/// the componentwise minimum (0 after normalization). Returns the index of
/// the front point minimizing the weighted Euclidean distance
/// sqrt(sum_i (w_i * f_i_norm)^2). Returns SIZE_MAX for an empty front.
size_t WeightedUtopiaNearest(const std::vector<ObjectiveVector>& front,
                             const std::vector<double>& weights);

/// \brief Reference Minkowski-sum merge (Algorithm 3) that materializes
/// the full |a| x |b| cross product before filtering.
///
/// Returns the non-dominated multiset of {a[i] + b[j]} (exact
/// duplicates kept) in cross-product order, i * |b| + j ascending, and
/// sets `*pairs` (cleared first) to one (i, j) position pair per
/// returned point: the contract an uncapped FlatMerge2/FlatMerge3 keeps
/// through `ParetoScratch::pairs`. The sums are taken for any k; the
/// filter is ParetoIndices, so k must be 2 or 3. Either input empty
/// gives an empty result.
///
/// By Proposition B.1, Pf(Pf(F) ⊕ Pf(G)) = Pf(F x G), so merging the
/// children's fronts loses no query-level Pareto solution.
std::vector<ObjectiveVector> MergeFrontsNaive(
    const std::vector<ObjectiveVector>& a,
    const std::vector<ObjectiveVector>& b, std::vector<MergePair>* pairs);

}  // namespace sparkopt
