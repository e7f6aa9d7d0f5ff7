#include "common/pareto_flat.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/trace.h"

namespace sparkopt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sorts `order` (resized/iota'd here) by (x, y, position). This is the
// canonical sweep order shared by every kernel primitive: x ascending,
// ties by y ascending, exact duplicates by position so the sweep is
// deterministic.
void SortByXY(const double* x, const double* y, size_t n,
              std::vector<uint32_t>* order) {
  order->resize(n);
  std::iota(order->begin(), order->end(), 0u);
  std::sort(order->begin(), order->end(), [&](uint32_t i, uint32_t j) {
    if (x[i] != x[j]) return x[i] < x[j];
    if (y[i] != y[j]) return y[i] < y[j];
    return i < j;
  });
}

// Minima staircase over two axes: sy strictly ascending, sz strictly
// descending, so the smallest sz among the entries with sy' <= py is the
// entry at the largest sy' <= py. The 2-D filter keeps one over (x, y),
// the 3-D sweeps one over (y, z).

// True when some staircase point weakly dominates (py, pz).
bool StairCovers(const std::vector<double>& sy, const std::vector<double>& sz,
                 double py, double pz) {
  const auto it = std::upper_bound(sy.begin(), sy.end(), py);
  if (it == sy.begin()) return false;
  return sz[static_cast<size_t>(it - sy.begin()) - 1] <= pz;
}

// Inserts (py, pz), preserving the invariant. A point already weakly
// covered contributes nothing and is skipped.
void StairInsert(std::vector<double>* sy, std::vector<double>* sz, double py,
                 double pz) {
  const auto it = std::upper_bound(sy->begin(), sy->end(), py);
  size_t pos = static_cast<size_t>(it - sy->begin());
  if (pos > 0 && (*sz)[pos - 1] <= pz) return;  // covered: useless entry
  if (pos > 0 && (*sy)[pos - 1] == py) {
    // Same y, strictly better z: tighten in place.
    --pos;
    (*sz)[pos] = pz;
  } else {
    sy->insert(sy->begin() + pos, py);
    sz->insert(sz->begin() + pos, pz);
  }
  // Entries after pos with z >= pz are now covered.
  size_t end = pos + 1;
  while (end < sz->size() && (*sz)[end] >= pz) ++end;
  sy->erase(sy->begin() + pos + 1, sy->begin() + end);
  sz->erase(sz->begin() + pos + 1, sz->begin() + end);
}

}  // namespace

void FlatParetoPositions(const double* x, const double* y, size_t n,
                         std::vector<uint32_t>* kept,
                         ParetoScratch* scratch) {
  kept->clear();
  if (n == 0) return;
  // Sweep in position order, keeping the minima staircase of every point
  // seen so far. At the end it holds exactly the distinct non-dominated
  // points: each point is weakly covered by an entry, and no entry is
  // strictly dominated by any point.
  auto& sx = scratch->stair_x;
  auto& sy = scratch->stair_y;
  sx.clear();
  sy.clear();
  for (size_t i = 0; i < n; ++i) StairInsert(&sx, &sy, x[i], y[i]);
  // A point is non-dominated iff it equals a staircase entry (its
  // covering entry would otherwise strictly dominate it), so exact
  // duplicates of a kept point are all kept, in ascending position order.
  for (size_t i = 0; i < n; ++i) {
    const auto it = std::upper_bound(sx.begin(), sx.end(), x[i]);
    if (it == sx.begin()) continue;
    const size_t e = static_cast<size_t>(it - sx.begin()) - 1;
    if (sx[e] == x[i] && sy[e] == y[i]) {
      kept->push_back(static_cast<uint32_t>(i));
    }
  }
}

namespace {

// Min-heap on sum-x. std::push_heap builds a max-heap, so the
// comparator is inverted.
struct CellGreater {
  bool operator()(const ParetoScratch::HeapCell& a,
                  const ParetoScratch::HeapCell& b) const {
    return a.x > b.x;
  }
};

// True when y is non-increasing along the (x, y)-sorted order — i.e.
// the input is a clean staircase, which licenses the binary-search row
// skip inside the merge.
bool IsMonotoneStaircase(const std::vector<double>& ys) {
  for (size_t i = 1; i < ys.size(); ++i) {
    if (ys[i] > ys[i - 1]) return false;
  }
  return true;
}

// Stages n points, whose (x, y[, z], position) order is `order`: exact
// duplicates sort adjacently, and each run of them becomes one entry of
// rx/ry[/rz] whose sorted positions start at start[u]. `z` and `rz` are
// null for k = 2.
void StageRuns(const double* x, const double* y, const double* z, size_t n,
               const std::vector<uint32_t>& order, std::vector<double>* rx,
               std::vector<double>* ry, std::vector<double>* rz,
               std::vector<uint32_t>* start, std::vector<uint32_t>* map) {
  rx->clear();
  ry->clear();
  if (rz != nullptr) rz->clear();
  start->clear();
  map->resize(n);
  for (size_t s = 0; s < n; ++s) {
    const uint32_t src = order[s];
    (*map)[s] = src;
    if (s == 0 || x[src] != rx->back() || y[src] != ry->back() ||
        (z != nullptr && z[src] != rz->back())) {
      rx->push_back(x[src]);
      ry->push_back(y[src]);
      if (z != nullptr) rz->push_back(z[src]);
      start->push_back(static_cast<uint32_t>(s));
    }
  }
  start->push_back(static_cast<uint32_t>(n));
}

// Number of identical cells run pair (u, v) stands for.
uint64_t RunCells(const ParetoScratch& s, uint32_t u, uint32_t v) {
  return static_cast<uint64_t>(s.arun[u + 1] - s.arun[u]) *
         (s.brun[v + 1] - s.brun[v]);
}

// Appends the cross-product keys (original i * bn + j) of run pair
// (u, v)'s cells to scratch->keys.
void AppendKeys(ParetoScratch* s, uint32_t u, uint32_t v, size_t bn) {
  for (uint32_t i = s->arun[u]; i < s->arun[u + 1]; ++i) {
    const uint64_t row = static_cast<uint64_t>(s->amap[i]) * bn;
    for (uint32_t j = s->brun[v]; j < s->brun[v + 1]; ++j) {
      s->keys.push_back(row + s->bmap[j]);
    }
  }
}

// True when two run pairs sum to the same point.
bool SamePoint(const ParetoScratch::HeapCell& p,
               const ParetoScratch::HeapCell& q) {
  return p.x == q.x && p.y == q.y;
}
bool SamePoint(const ParetoScratch::HeapCell3& p,
               const ParetoScratch::HeapCell3& q) {
  return p.x == q.x && p.y == q.y && p.z == q.z;
}

// Fills scratch->pairs from the kept run pairs `kept`, listed in
// (x, y[, z]) order so that equal points are adjacent. Their n cells
// form the kept multiset. When n <= cap or cap < 2 every cell is
// emitted in cross-product order; otherwise the cells at ranks
// t * (n - 1) / (cap - 1) of (x, y[, z], key) order.
template <typename Cell>
void SelectPairs(const std::vector<Cell>& kept, size_t bn, size_t cap,
                 ParetoScratch* s) {
  auto& keys = s->keys;
  auto& pairs = s->pairs;
  uint64_t n = 0;
  for (const Cell& c : kept) n += RunCells(*s, c.i, c.j);
  if (cap < 2 || n <= cap) {
    keys.clear();
    for (const Cell& c : kept) AppendKeys(s, c.i, c.j, bn);
    std::sort(keys.begin(), keys.end());
    pairs.reserve(keys.size());
    for (uint64_t key : keys) {
      pairs.push_back({static_cast<uint32_t>(key / bn),
                       static_cast<uint32_t>(key % bn)});
    }
    return;
  }
  // Walk the classes of equal points in order: a class of m cells holds
  // ranks [base, base + m) and emits the targets that fall there.
  pairs.reserve(cap);
  uint64_t t = 0;
  uint64_t rank = 0;
  uint64_t base = 0;
  auto next_rank = [&] {
    ++t;
    rank = t * (n - 1) / (cap - 1);
  };
  for (size_t c0 = 0; c0 < kept.size() && t < cap;) {
    size_t c1 = c0 + 1;
    uint64_t m = RunCells(*s, kept[c0].i, kept[c0].j);
    while (c1 < kept.size() && SamePoint(kept[c0], kept[c1])) {
      m += RunCells(*s, kept[c1].i, kept[c1].j);
      ++c1;
    }
    if (c1 - c0 == 1) {
      // One run pair: sorting broke position ties, so map ascends along
      // each run and the cells' keys ascend row-major — rank q is cell
      // (q / cols, q % cols) of the run pair, no sort needed.
      const uint32_t i0 = s->arun[kept[c0].i];
      const uint32_t j0 = s->brun[kept[c0].j];
      const uint32_t cols = s->brun[kept[c0].j + 1] - j0;
      for (; t < cap && rank < base + m; next_rank()) {
        const uint64_t q = rank - base;
        pairs.push_back({s->amap[i0 + q / cols], s->bmap[j0 + q % cols]});
      }
    } else if (rank < base + m) {
      // Coinciding sums from several run pairs: order their keys.
      keys.clear();
      for (size_t c = c0; c < c1; ++c) AppendKeys(s, kept[c].i, kept[c].j, bn);
      std::sort(keys.begin(), keys.end());
      for (; t < cap && rank < base + m; next_rank()) {
        const uint64_t key = keys[rank - base];
        pairs.push_back({static_cast<uint32_t>(key / bn),
                         static_cast<uint32_t>(key % bn)});
      }
    }
    base += m;
    c0 = c1;
  }
}

}  // namespace

void FlatMerge2(const Front2& a, const Front2& b, Front2* out,
                ParetoScratch* scratch, size_t cap) {
  out->clear();
  scratch->pairs.clear();
  const size_t an = a.size();
  const size_t bn = b.size();
  if (an == 0 || bn == 0) return;

  // Stage both inputs sorted by (x, y, position), one entry per run of
  // exact duplicates.
  SortByXY(a.x.data(), a.y.data(), an, &scratch->order);
  StageRuns(a.x.data(), a.y.data(), nullptr, an, scratch->order, &scratch->ax,
            &scratch->ay, nullptr, &scratch->arun, &scratch->amap);
  SortByXY(b.x.data(), b.y.data(), bn, &scratch->order);
  StageRuns(b.x.data(), b.y.data(), nullptr, bn, scratch->order, &scratch->bx,
            &scratch->by, nullptr, &scratch->brun, &scratch->bmap);
  const double* ax = scratch->ax.data();
  const double* ay = scratch->ay.data();
  const double* bx = scratch->bx.data();
  const double* by = scratch->by.data();
  const uint32_t arn = static_cast<uint32_t>(scratch->ax.size());
  const uint32_t brn = static_cast<uint32_t>(scratch->bx.size());
  // A front's staircase has y monotone in sorted order; only then can a
  // row binary-search past run pairs that can no longer survive.
  // Non-front inputs (never produced by the solvers) still merge
  // correctly, one run pair at a time.
  const bool can_skip = IsMonotoneStaircase(scratch->by);

  auto& heap = scratch->heap;
  auto& group = scratch->group;
  auto& kept = scratch->kept_pairs;
  heap.clear();
  kept.clear();

  // The sum matrix M[u][v] = run_a[u] + run_b[v] is monotone in x along
  // both axes, so popping a min-heap of per-row frontier run pairs
  // enumerates them in nondecreasing sum-x. best_y is the minimum sum-y
  // over all run pairs with strictly smaller sum-x; a run pair whose
  // sum-y reaches best_y can never be kept later (kept y values only
  // decrease), which is what the row skip exploits.
  double best_y = kInf;

  // Pushes row u's next viable run pair at b-run >= v, or retires the row.
  auto push_row = [&](uint32_t u, uint32_t v) {
    if (can_skip && v < brn && ay[u] + by[v] >= best_y) {
      // First v' with sum-y < best_y; sum-y is non-increasing in v.
      size_t lo = v + 1, hi = brn;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (ay[u] + by[mid] < best_y) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      v = static_cast<uint32_t>(lo);
    }
    if (v >= brn) return;
    heap.push_back({ax[u] + bx[v], ay[u] + by[v], u, v});
    std::push_heap(heap.begin(), heap.end(), CellGreater{});
  };

  for (uint32_t u = 0; u < arn; ++u) push_row(u, 0);

  while (!heap.empty()) {
    // Drain the equal-sum-x group: within it, survivors are the run
    // pairs achieving the group minimum sum-y (there may be several —
    // exact duplicates are kept), provided they beat best_y from strictly
    // smaller x. Survivors of one group are all the same point.
    const double gx = heap.front().x;
    group.clear();
    double gmin = kInf;
    while (!heap.empty() && heap.front().x == gx) {
      std::pop_heap(heap.begin(), heap.end(), CellGreater{});
      const ParetoScratch::HeapCell cell = heap.back();
      heap.pop_back();
      gmin = std::min(gmin, cell.y);
      group.push_back(cell);
      push_row(cell.i, cell.j + 1);
    }
    if (gmin < best_y) {
      for (const auto& cell : group) {
        if (cell.y == gmin) kept.push_back(cell);
      }
      best_y = gmin;
    }
  }

  // Groups pop in ascending x, so `kept` is already in (x, y) order.
  SelectPairs(kept, bn, cap, scratch);
  // Recompute each sum with the naive path's expression.
  out->reserve(scratch->pairs.size());
  for (const MergePair& pair : scratch->pairs) {
    out->Append(a.x[pair.i] + b.x[pair.j], a.y[pair.i] + b.y[pair.j],
                out->size());
  }
  // Merge-size distributions for the profiler (worker-thread safe; one
  // relaxed load each when no session is installed).
  obs::Observe("pareto.merge_in_points", static_cast<double>(an + bn));
  obs::Observe("pareto.merge_out_points", static_cast<double>(out->size()));
}

double FlatHypervolume2(const double* x, const double* y, size_t n,
                        double ref_x, double ref_y, ParetoScratch* scratch) {
  if (n == 0) return 0.0;
  SortByXY(x, y, n, &scratch->order);
  // Left-to-right staircase strips [x_i, ref_x] x [y_i, last_y].
  // Dominated and duplicate points fail the strict-improvement test and
  // contribute no term, so the accumulation order and terms are exactly
  // those of the filter-then-sum path.
  double hv = 0.0;
  double last_y = ref_y;
  for (uint32_t idx : scratch->order) {
    if (x[idx] >= ref_x) break;
    const double clipped_y = std::min(y[idx], last_y);
    if (clipped_y < last_y) {
      hv += (ref_x - x[idx]) * (last_y - clipped_y);
      last_y = clipped_y;
    }
  }
  return hv;
}

// ---- k = 3 primitives ----------------------------------------------------

namespace {

// Canonical 3-D sweep order: (x, y, z, position). Exact duplicates sort
// adjacently, and any strict dominator of a point sorts before it.
void SortByXYZ(const double* x, const double* y, const double* z, size_t n,
               std::vector<uint32_t>* order) {
  order->resize(n);
  std::iota(order->begin(), order->end(), 0u);
  std::sort(order->begin(), order->end(), [&](uint32_t i, uint32_t j) {
    if (x[i] != x[j]) return x[i] < x[j];
    if (y[i] != y[j]) return y[i] < y[j];
    if (z[i] != z[j]) return z[i] < z[j];
    return i < j;
  });
}

}  // namespace

void FlatParetoPositions3(const double* x, const double* y, const double* z,
                          size_t n, std::vector<uint32_t>* kept,
                          ParetoScratch* scratch) {
  kept->clear();
  if (n == 0) return;
  SortByXYZ(x, y, z, n, &scratch->order);
  auto& sy = scratch->sy;
  auto& sz = scratch->sz;
  sy.clear();
  sz.clear();
  // Lexicographic sweep: any strict dominator of point p sorts before p,
  // and a kept earlier point with y' <= y and z' <= z dominates (x' <= x
  // is implied; the tuples are distinct because exact duplicates are
  // handled by decision-sharing below). Dominated earlier points never
  // need to be consulted: their own kept dominator covers transitively.
  double prev_x = std::numeric_limits<double>::quiet_NaN();
  double prev_y = prev_x, prev_z = prev_x;
  bool prev_kept = false;
  bool first = true;
  for (uint32_t idx : scratch->order) {
    if (!first && x[idx] == prev_x && y[idx] == prev_y && z[idx] == prev_z) {
      if (prev_kept) kept->push_back(idx);
      continue;
    }
    first = false;
    prev_x = x[idx];
    prev_y = y[idx];
    prev_z = z[idx];
    prev_kept = !StairCovers(sy, sz, y[idx], z[idx]);
    if (prev_kept) {
      kept->push_back(idx);
      StairInsert(&sy, &sz, y[idx], z[idx]);
    }
  }
  std::sort(kept->begin(), kept->end());
}

namespace {

struct Cell3Greater {
  bool operator()(const ParetoScratch::HeapCell3& a,
                  const ParetoScratch::HeapCell3& b) const {
    return a.x > b.x;
  }
};

}  // namespace

void FlatMerge3(const Front3& a, const Front3& b, Front3* out,
                ParetoScratch* scratch, size_t cap) {
  out->clear();
  scratch->pairs.clear();
  const size_t an = a.size();
  const size_t bn = b.size();
  if (an == 0 || bn == 0) return;

  // Stage both inputs sorted by (x, y, z, position), one entry per run of
  // exact duplicates.
  SortByXYZ(a.x.data(), a.y.data(), a.z.data(), an, &scratch->order);
  StageRuns(a.x.data(), a.y.data(), a.z.data(), an, scratch->order,
            &scratch->ax, &scratch->ay, &scratch->az, &scratch->arun,
            &scratch->amap);
  SortByXYZ(b.x.data(), b.y.data(), b.z.data(), bn, &scratch->order);
  StageRuns(b.x.data(), b.y.data(), b.z.data(), bn, scratch->order,
            &scratch->bx, &scratch->by, &scratch->bz, &scratch->brun,
            &scratch->bmap);
  const double* ax = scratch->ax.data();
  const double* ay = scratch->ay.data();
  const double* az = scratch->az.data();
  const double* bx = scratch->bx.data();
  const double* by = scratch->by.data();
  const double* bz = scratch->bz.data();
  const uint32_t arn = static_cast<uint32_t>(scratch->ax.size());
  const uint32_t brn = static_cast<uint32_t>(scratch->bx.size());

  auto& heap = scratch->heap3;
  auto& group = scratch->group3;
  auto& kept = scratch->kept_pairs3;
  auto& sy = scratch->sy;
  auto& sz = scratch->sz;
  heap.clear();
  kept.clear();
  sy.clear();
  sz.clear();

  // Per-row frontier run pairs on a min-heap keyed by sum-x: row u's run
  // pairs (u, 0..brn) have nondecreasing sum-x, so popping the heap
  // enumerates the whole run product grouped by nondecreasing sum-x —
  // without the 2-D kernel's binary-search row skip (no single scalar
  // prunes a 3-D row).
  auto push_row = [&](uint32_t u, uint32_t v) {
    if (v >= brn) return;
    heap.push_back({ax[u] + bx[v], ay[u] + by[v], az[u] + bz[v], u, v});
    std::push_heap(heap.begin(), heap.end(), Cell3Greater{});
  };
  for (uint32_t u = 0; u < arn; ++u) push_row(u, 0);

  auto& gy = scratch->gy;
  auto& gz = scratch->gz;
  while (!heap.empty()) {
    // Drain the equal-sum-x group.
    const double gx = heap.front().x;
    group.clear();
    while (!heap.empty() && heap.front().x == gx) {
      std::pop_heap(heap.begin(), heap.end(), Cell3Greater{});
      const ParetoScratch::HeapCell3 cell = heap.back();
      heap.pop_back();
      group.push_back(cell);
      push_row(cell.i, cell.j + 1);
    }
    // Within the group the first coordinates are equal, so 3-D dominance
    // reduces to 2-D dominance on (sum-y, sum-z) — multiset semantics
    // included (equal cells never dominate each other).
    gy.resize(group.size());
    gz.resize(group.size());
    for (size_t g = 0; g < group.size(); ++g) {
      gy[g] = group[g].y;
      gz[g] = group[g].z;
    }
    FlatParetoPositions(gy.data(), gz.data(), group.size(), &scratch->kept,
                        scratch);
    // Survivors must also escape every kept run pair from strictly
    // smaller sum-x: weak (y, z)-coverage there is strict 3-D dominance.
    // Query all survivors first, then insert — same-group survivors with
    // equal (y, z) are duplicates, not dominators.
    const size_t new_from = kept.size();
    for (uint32_t g : scratch->kept) {
      if (!StairCovers(sy, sz, group[g].y, group[g].z)) {
        kept.push_back(group[g]);
      }
    }
    for (size_t p = new_from; p < kept.size(); ++p) {
      StairInsert(&sy, &sz, kept[p].y, kept[p].z);
    }
    // Groups pop in ascending x; ordering each group by (y, z) leaves
    // `kept` in (x, y, z) order with equal points adjacent.
    std::sort(kept.begin() + new_from, kept.end(),
              [](const ParetoScratch::HeapCell3& p,
                 const ParetoScratch::HeapCell3& q) {
                if (p.y != q.y) return p.y < q.y;
                return p.z < q.z;
              });
  }

  SelectPairs(kept, bn, cap, scratch);
  // Recompute each sum with the naive path's expression.
  out->reserve(scratch->pairs.size());
  for (const MergePair& pair : scratch->pairs) {
    out->Append(a.x[pair.i] + b.x[pair.j], a.y[pair.i] + b.y[pair.j],
                a.z[pair.i] + b.z[pair.j], out->size());
  }
  obs::Observe("pareto.merge_in_points", static_cast<double>(an + bn));
  obs::Observe("pareto.merge_out_points", static_cast<double>(out->size()));
}

}  // namespace sparkopt
