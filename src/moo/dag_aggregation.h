#pragma once

#include <cstddef>
#include <vector>

#include "common/arena.h"
#include "common/pareto_flat.h"

/// \file dag_aggregation.h
/// \brief DAG aggregation strategies for HMOOC (Algorithms 2-4): given
/// each subQ's effective set under one theta_c candidate, assemble the
/// query-level front.
///
/// Extracted from hmooc.cc so the three strategies share one
/// allocation-discipline: a DagAggregator owns a MonotonicArena (choice
/// rows, reset per call), a ParetoScratch, and a pool of
/// divide-and-conquer nodes whose front buffers are recycled across
/// calls. After a warm-up call at the session's high-water sizes,
/// repeated aggregations of same-shaped inputs perform zero heap
/// allocation (pinned by tests/common/alloc_test.cc).
///
/// Supports k = 2 and k = 3 objectives; the exact divide-and-conquer
/// path runs on the flat kernel's FlatMerge2/FlatMerge3. HMOOC2's weight
/// vectors come from WeightLadder, which the WS baseline
/// (moo/baselines.h) scalarizes over too, so the two share one weight
/// set by construction.

namespace sparkopt {

/// \brief Fills `*w` (cleared first) with `num_weights` evenly spread
/// weight vectors over the k-simplex, k doubles per row. k = 2: the
/// ladder (i / (n - 1), 1 - i / (n - 1)), or (0.5, 0.5) for a single
/// weight (Algorithm 4). k = 3: the smallest simplex lattice
/// {(a, b, t-a-b) / t} with at least `num_weights` points, in (a, b)
/// lexicographic order. `num_weights` <= 0 gives no rows. Allocation-free
/// once `*w` has reached its high-water capacity.
void WeightLadder(int k, int num_weights, std::vector<double>* w);

/// One subQ-level solution in a candidate's effective set. Objectives
/// are stored inline (first `k` slots of `f`) so effective sets carry no
/// per-entry heap allocation.
struct SubQEntry {
  int pool_idx = -1;       ///< index into the shared theta_p pool
  double f[3] = {0, 0, 0};  ///< objective values; slots >= k unused
};

/// eff[c][i] = effective set of subQ i under theta_c candidate c.
using EffectiveSet = std::vector<std::vector<std::vector<SubQEntry>>>;

/// Query-level aggregation output for one candidate, SoA rows. Reuse one
/// batch across calls to keep its buffers at their high-water capacity.
struct AggregatedBatch {
  int k = 0;      ///< objectives per point
  int width = 0;  ///< subQs covered: choice-row length
  /// Point p's objectives: obj[p*k .. p*k+k).
  std::vector<double> obj;
  /// Point p's per-subQ pool choice: choice[p*width .. p*width+width).
  std::vector<int> choice;

  size_t size() const { return k == 0 ? 0 : obj.size() / k; }
  void clear() {
    obj.clear();
    choice.clear();
  }
};

/// \brief Aggregates one candidate's subQ effective sets into
/// query-level points. Caller-owned like ParetoScratch: create one per
/// thread (or per solver task) and reuse it — buffers reach a steady
/// state after the first call. Not thread-safe.
class DagAggregator {
 public:
  /// HMOOC1: exact divide-and-conquer Minkowski merging (Algorithms 2-3)
  /// on the flat kernel. `cap` bounds each merge node's front (evenly
  /// spaced thinning, extremes kept, done inside the kernel's merge);
  /// cap < 2 keeps every point. Emits nothing when any subQ set is empty.
  void AggregateDc(const std::vector<std::vector<SubQEntry>>& sets, int k,
                   size_t cap, AggregatedBatch* out);

  /// HMOOC2: weighted-sum approximation (Algorithm 4), one point per
  /// WeightLadder(k, ws_pairs) row. `normalize` applies per-subQ min-max
  /// normalization.
  void AggregateWeightedSum(const std::vector<std::vector<SubQEntry>>& sets,
                            int k, int ws_pairs, bool normalize,
                            AggregatedBatch* out);

  /// HMOOC3: boundary approximation — one point per objective, built
  /// from each subQ's per-objective argmin entry.
  void AggregateBoundary(const std::vector<std::vector<SubQEntry>>& sets,
                         int k, AggregatedBatch* out);

  /// High-water footprint of the choice-row arena (diagnostics/tests).
  const MonotonicArena& arena() const { return arena_; }

 private:
  /// One divide-and-conquer tree node. The front lives in f2 or f3
  /// depending on k; choice rows are arena-backed (valid until the next
  /// AggregateDc call).
  struct Node {
    Front2 f2;
    Front3 f3;
    const int* choice = nullptr;
    int width = 0;
    bool in_use = false;
  };

  int AcquireNode();
  void ReleaseNode(int idx);
  size_t NodePoints(const Node& n, int k) const {
    return k == 3 ? n.f3.size() : n.f2.size();
  }

  int Leaf(const std::vector<SubQEntry>& set, int k);
  int Merge(int a, int b, int k, size_t cap);
  int Recurse(const std::vector<std::vector<SubQEntry>>& sets, int lo, int hi,
              int k, size_t cap);

  MonotonicArena arena_;
  std::vector<double> weights_;  ///< WeightLadder rows (HMOOC2)
  ParetoScratch scratch_;
  std::vector<Node> nodes_;
  std::vector<int> free_;
};

}  // namespace sparkopt
