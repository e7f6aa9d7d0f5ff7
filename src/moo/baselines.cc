#include "moo/baselines.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "moo/dag_aggregation.h"

namespace sparkopt {

namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<double> RandomPoint(size_t d, Rng* rng) {
  std::vector<double> x(d);
  for (auto& v : x) v = rng->Uniform();
  return x;
}

MooRunResult FinishResult(const FlatProblem& decoder,
                          std::vector<std::vector<double>> xs,
                          std::vector<ObjectiveVector> fs, double secs,
                          size_t evals) {
  MooRunResult result;
  result.solve_seconds = secs;
  result.evaluations = evals;
  for (size_t i : ParetoIndices(fs)) {
    MooSolution sol = decoder.Decode(xs[i]);
    sol.objectives = fs[i];
    result.pareto.push_back(std::move(sol));
  }
  return result;
}

}  // namespace

MooRunResult SolveWeightedSum(const QueryObjectiveFn& fn,
                              const FlatProblem& decoder,
                              const WsOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(opts.seed);
  const size_t d = fn.dims();
  const size_t nk = fn.num_objectives();
  SPARKOPT_CHECK(nk == 2 || nk == 3) << "WS supports 2 or 3 objectives";
  std::vector<std::vector<double>> xs;
  std::vector<ObjectiveVector> fs;
  const size_t samples = static_cast<size_t>(std::max(opts.samples, 0));
  xs.reserve(samples);
  fs.reserve(samples);
  ObjectiveVector lo(nk, std::numeric_limits<double>::infinity());
  ObjectiveVector hi(nk, -std::numeric_limits<double>::infinity());
  for (int i = 0; i < opts.samples; ++i) {
    xs.push_back(RandomPoint(d, &rng));
    fs.push_back(fn.Eval(xs.back()));
    for (size_t k = 0; k < nk; ++k) {
      lo[k] = std::min(lo[k], fs.back()[k]);
      hi[k] = std::max(hi[k], fs.back()[k]);
    }
  }
  // For each weight vector keep the argmin of the normalized weighted sum,
  // over HMOOC2's weight set.
  std::vector<double> weights;
  WeightLadder(static_cast<int>(nk), opts.num_weights, &weights);
  const size_t n_weights = weights.size() / nk;
  std::vector<std::vector<double>> win_x;
  std::vector<ObjectiveVector> win_f;
  for (size_t w = 0; w < n_weights; ++w) {
    double best = std::numeric_limits<double>::infinity();
    size_t best_i = fs.size();  // none yet
    for (size_t i = 0; i < fs.size(); ++i) {
      double v = 0.0;
      for (size_t k = 0; k < nk; ++k) {
        const double r = hi[k] > lo[k]
                             ? (fs[i][k] - lo[k]) / (hi[k] - lo[k])
                             : 0.0;
        v += weights[w * nk + k] * r;
      }
      if (v < best) {
        best = v;
        best_i = i;
      }
    }
    if (best_i == fs.size()) continue;  // no sample scored below inf
    win_x.push_back(xs[best_i]);
    win_f.push_back(fs[best_i]);
  }
  return FinishResult(decoder, std::move(win_x), std::move(win_f),
                      Seconds(t0), fs.size());
}

MooRunResult SolveSoFixedWeights(const QueryObjectiveFn& fn,
                                 const FlatProblem& decoder,
                                 const std::vector<double>& weights,
                                 int samples, uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(seed);
  const size_t d = fn.dims();
  const size_t nk = fn.num_objectives();
  SPARKOPT_CHECK(weights.size() >= nk)
      << "SO-FW needs one weight per objective";
  // Scalarize raw objectives with the given fixed weights (the common
  // practice the paper critiques: no normalization by the Pareto range,
  // just a fixed linear combination of the objectives).
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> best_x;
  ObjectiveVector best_f;
  ObjectiveVector lo(nk, std::numeric_limits<double>::infinity());
  ObjectiveVector hi(nk, -std::numeric_limits<double>::infinity());
  std::vector<std::vector<double>> xs;
  std::vector<ObjectiveVector> fs;
  for (int i = 0; i < samples; ++i) {
    xs.push_back(RandomPoint(d, &rng));
    fs.push_back(fn.Eval(xs.back()));
    for (size_t k = 0; k < nk; ++k) {
      lo[k] = std::min(lo[k], fs.back()[k]);
      hi[k] = std::max(hi[k], fs.back()[k]);
    }
  }
  // Fixed-weight scalarization over z-scored objectives (a fixed, not
  // Pareto-aware, normalization as in prior SO tuners).
  for (size_t i = 0; i < xs.size(); ++i) {
    double v = 0.0;
    for (size_t k = 0; k < nk; ++k) {
      const double r =
          hi[k] > lo[k] ? (fs[i][k] - lo[k]) / (hi[k] - lo[k]) : 0.0;
      v += weights[k] * r;
    }
    if (v < best) {
      best = v;
      best_x = xs[i];
      best_f = fs[i];
    }
  }
  MooRunResult result;
  result.solve_seconds = Seconds(t0);
  result.evaluations = fs.size();
  // No sample scored below inf (none drawn, or non-finite weights): an
  // empty front, which callers report.
  if (best_x.empty()) return result;
  MooSolution sol = decoder.Decode(best_x);
  sol.objectives = best_f;
  result.pareto.push_back(std::move(sol));
  return result;
}

// ---------------------------------------------------------------------------
// NSGA-II
// ---------------------------------------------------------------------------

namespace {

struct Individual {
  std::vector<double> x;
  ObjectiveVector f;
  int rank = 0;
  double crowding = 0.0;
};

void NonDominatedSort(std::vector<Individual>* pop) {
  const size_t n = pop->size();
  std::vector<std::vector<size_t>> dominates(n);
  std::vector<int> dominated_by(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (Dominates((*pop)[i].f, (*pop)[j].f)) {
        dominates[i].push_back(j);
      } else if (Dominates((*pop)[j].f, (*pop)[i].f)) {
        ++dominated_by[i];
      }
    }
  }
  std::vector<size_t> frontier;
  for (size_t i = 0; i < n; ++i) {
    if (dominated_by[i] == 0) {
      (*pop)[i].rank = 0;
      frontier.push_back(i);
    }
  }
  int rank = 0;
  while (!frontier.empty()) {
    std::vector<size_t> next;
    for (size_t i : frontier) {
      for (size_t j : dominates[i]) {
        if (--dominated_by[j] == 0) {
          (*pop)[j].rank = rank + 1;
          next.push_back(j);
        }
      }
    }
    frontier = std::move(next);
    ++rank;
  }
}

void AssignCrowding(std::vector<Individual>* pop) {
  const size_t n = pop->size();
  if (n == 0) return;
  const size_t nk = (*pop)[0].f.size();
  for (auto& ind : *pop) ind.crowding = 0.0;
  for (size_t k = 0; k < nk; ++k) {
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return (*pop)[a].f[k] < (*pop)[b].f[k];
    });
    (*pop)[order.front()].crowding = 1e30;
    (*pop)[order.back()].crowding = 1e30;
    const double range =
        (*pop)[order.back()].f[k] - (*pop)[order.front()].f[k];
    if (range <= 0) continue;
    for (size_t i = 1; i + 1 < n; ++i) {
      (*pop)[order[i]].crowding +=
          ((*pop)[order[i + 1]].f[k] - (*pop)[order[i - 1]].f[k]) / range;
    }
  }
}

bool CrowdedLess(const Individual& a, const Individual& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.crowding > b.crowding;
}

double SbxGene(double p1, double p2, double eta, Rng* rng, bool first) {
  const double u = rng->Uniform();
  const double beta =
      u <= 0.5 ? std::pow(2.0 * u, 1.0 / (eta + 1.0))
               : std::pow(1.0 / (2.0 * (1.0 - u)), 1.0 / (eta + 1.0));
  const double c = first ? 0.5 * ((1 + beta) * p1 + (1 - beta) * p2)
                         : 0.5 * ((1 - beta) * p1 + (1 + beta) * p2);
  return std::clamp(c, 0.0, 1.0);
}

double PolyMutate(double v, double eta, Rng* rng) {
  const double u = rng->Uniform();
  double delta;
  if (u < 0.5) {
    delta = std::pow(2.0 * u, 1.0 / (eta + 1.0)) - 1.0;
  } else {
    delta = 1.0 - std::pow(2.0 * (1.0 - u), 1.0 / (eta + 1.0));
  }
  return std::clamp(v + delta, 0.0, 1.0);
}

}  // namespace

MooRunResult SolveEvo(const QueryObjectiveFn& fn, const FlatProblem& decoder,
                      const EvoOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(opts.seed);
  const size_t d = fn.dims();
  size_t evals = 0;

  std::vector<Individual> pop(opts.population);
  for (auto& ind : pop) {
    ind.x = RandomPoint(d, &rng);
    ind.f = fn.Eval(ind.x);
    ++evals;
  }
  NonDominatedSort(&pop);
  AssignCrowding(&pop);

  const double mut_prob = opts.mutation_prob_scale / static_cast<double>(d);
  while (evals < static_cast<size_t>(opts.max_evaluations)) {
    // Binary-tournament mating to create one generation of offspring.
    std::vector<Individual> offspring;
    while (offspring.size() < pop.size() &&
           evals + offspring.size() <
               static_cast<size_t>(opts.max_evaluations)) {
      auto pick = [&]() -> const Individual& {
        const auto& a = pop[rng.NextBounded(pop.size())];
        const auto& b = pop[rng.NextBounded(pop.size())];
        return CrowdedLess(a, b) ? a : b;
      };
      const Individual& p1 = pick();
      const Individual& p2 = pick();
      Individual child;
      child.x.resize(d);
      const bool do_cx = rng.Bernoulli(opts.crossover_prob);
      for (size_t g = 0; g < d; ++g) {
        child.x[g] = do_cx ? SbxGene(p1.x[g], p2.x[g], 15.0, &rng,
                                     rng.Bernoulli(0.5))
                           : p1.x[g];
        if (rng.Bernoulli(mut_prob)) {
          child.x[g] = PolyMutate(child.x[g], 20.0, &rng);
        }
      }
      offspring.push_back(std::move(child));
    }
    for (auto& child : offspring) {
      child.f = fn.Eval(child.x);
      ++evals;
    }
    // Environmental selection over the union.
    for (auto& child : offspring) pop.push_back(std::move(child));
    NonDominatedSort(&pop);
    AssignCrowding(&pop);
    std::sort(pop.begin(), pop.end(), CrowdedLess);
    pop.resize(opts.population);
    if (offspring.empty()) break;
  }

  std::vector<std::vector<double>> xs;
  std::vector<ObjectiveVector> fs;
  for (const auto& ind : pop) {
    xs.push_back(ind.x);
    fs.push_back(ind.f);
  }
  return FinishResult(decoder, std::move(xs), std::move(fs), Seconds(t0),
                      evals);
}

// ---------------------------------------------------------------------------
// Progressive Frontier
// ---------------------------------------------------------------------------

namespace {

// Constrained single-objective solve: minimize objective `k` subject to
// f in [lo, hi] box, by sampling + local refinement.
struct ConstrainedBest {
  bool found = false;
  std::vector<double> x;
  ObjectiveVector f;
};

ConstrainedBest ConstrainedMinimize(const QueryObjectiveFn& fn, int k,
                                    const ObjectiveVector& lo,
                                    const ObjectiveVector& hi, int samples,
                                    int refine_steps, Rng* rng,
                                    size_t* evals) {
  const size_t d = fn.dims();
  ConstrainedBest best;
  auto feasible = [&](const ObjectiveVector& f) {
    for (size_t i = 0; i < lo.size(); ++i) {
      if (f[i] < lo[i] || f[i] > hi[i]) return false;
    }
    return true;
  };
  for (int i = 0; i < samples; ++i) {
    auto x = RandomPoint(d, rng);
    auto f = fn.Eval(x);
    ++*evals;
    if (!feasible(f)) continue;
    if (!best.found || f[k] < best.f[k]) {
      best.found = true;
      best.x = std::move(x);
      best.f = std::move(f);
    }
  }
  if (!best.found) return best;
  // Local refinement (a sampling stand-in for UDAO's MOGD descent).
  for (int step = 0; step < refine_steps; ++step) {
    auto x = best.x;
    const double sigma = 0.08 * (1.0 - static_cast<double>(step) /
                                           std::max(refine_steps, 1));
    for (auto& v : x) {
      v = std::clamp(v + rng->Normal(0.0, sigma), 0.0, 1.0);
    }
    auto f = fn.Eval(x);
    ++*evals;
    if (feasible(f) && f[k] < best.f[k]) {
      best.x = std::move(x);
      best.f = std::move(f);
    }
  }
  return best;
}

}  // namespace

MooRunResult SolveProgressiveFrontier(const QueryObjectiveFn& fn,
                                      const FlatProblem& decoder,
                                      const PfOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(opts.seed);
  size_t evals = 0;
  const size_t nk = fn.num_objectives();
  SPARKOPT_CHECK(nk == 2 || nk == 3) << "PF supports 2 or 3 objectives";
  const ObjectiveVector kInfLo(nk, -1e300);
  const ObjectiveVector kInfHi(nk, 1e300);

  std::vector<std::vector<double>> xs;
  std::vector<ObjectiveVector> fs;

  // Extreme points: unconstrained minimization of each objective.
  for (size_t k = 0; k < nk; ++k) {
    ConstrainedBest ex =
        ConstrainedMinimize(fn, static_cast<int>(k), kInfLo, kInfHi,
                            opts.inner_samples, opts.refine_steps, &rng,
                            &evals);
    if (ex.found) {
      xs.push_back(std::move(ex.x));
      fs.push_back(std::move(ex.f));
    }
  }

  // Uncertainty rectangles between adjacent points of the Pareto front
  // of everything found so far, sorted lexicographically, subdivided
  // largest-first. `fs` holds at most max(max_points, nk) points, so
  // refiltering each iteration costs nothing next to one constrained
  // solve. With 3 objectives the rectangles are the (f0, f1) projections
  // of the (f0, f1, f2)-sorted front — a search heuristic (the third
  // objective is left unconstrained in the subdivision solves), not an
  // exactness claim; the returned set is still filtered to the true
  // non-dominated subset by FinishResult.
  struct Rect {
    ObjectiveVector a, b;  // two adjacent front points (a[0] <= b[0])
    double volume() const {
      return std::fabs((b[0] - a[0]) * (a[1] - b[1]));
    }
  };
  auto make_rects = [&]() {
    std::vector<ObjectiveVector> front = ParetoFilter(fs);
    std::sort(front.begin(), front.end());
    std::vector<Rect> rects;
    for (size_t i = 0; i + 1 < front.size(); ++i) {
      rects.push_back({{front[i][0], front[i][1]},
                       {front[i + 1][0], front[i + 1][1]}});
    }
    return rects;
  };

  while (static_cast<int>(fs.size()) < opts.max_points) {
    auto rects = make_rects();
    if (rects.empty()) break;
    auto it = std::max_element(rects.begin(), rects.end(),
                               [](const Rect& r1, const Rect& r2) {
                                 return r1.volume() < r2.volume();
                               });
    if (it->volume() <= 1e-12) break;
    // Solve a constrained problem in the middle half of the rectangle:
    // minimize f1 subject to f0 <= midpoint. In the 2-objective
    // staircase a[1] >= b[1] always holds, so the min/max below is the
    // historical box verbatim; with 3 objectives adjacent front points
    // need not be y-ordered and min/max keeps the box well-formed.
    const double y_lo = std::min(it->a[1], it->b[1]);
    const double y_hi = std::max(it->a[1], it->b[1]);
    ObjectiveVector lo = {it->a[0], y_lo};
    ObjectiveVector hi = {0.5 * (it->a[0] + it->b[0]), y_hi};
    if (nk == 3) {
      lo.push_back(-1e300);
      hi.push_back(1e300);
    }
    auto mid = ConstrainedMinimize(fn, 1, lo, hi, opts.inner_samples,
                                   opts.refine_steps, &rng, &evals);
    if (!mid.found) {
      // Try the other half before giving up on this rectangle.
      lo[0] = 0.5 * (it->a[0] + it->b[0]);
      lo[1] = y_lo;
      hi[0] = it->b[0];
      hi[1] = y_hi;
      mid = ConstrainedMinimize(fn, 0, lo, hi, opts.inner_samples,
                                opts.refine_steps, &rng, &evals);
    }
    if (!mid.found) break;
    // Avoid duplicates.
    bool dup = false;
    for (const auto& f : fs) {
      bool same = true;
      for (size_t k = 0; k < nk; ++k) {
        if (!(std::fabs(f[k] - mid.f[k]) < 1e-12)) {
          same = false;
          break;
        }
      }
      if (same) dup = true;
    }
    if (dup) break;
    xs.push_back(std::move(mid.x));
    fs.push_back(std::move(mid.f));
  }
  return FinishResult(decoder, std::move(xs), std::move(fs), Seconds(t0),
                      evals);
}

}  // namespace sparkopt
