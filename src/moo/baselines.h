#pragma once

#include <cstdint>

#include "moo/problem.h"

/// \file baselines.h
/// \brief The SOTA MOO baselines the paper compares against (Section 6.2):
/// Weighted Sum (WS), the Evolutionary method (Evo, an NSGA-II), and
/// Progressive Frontier (PF, from UDAO). Each solves a monolithic
/// QueryObjectiveFn over the normalized decision cube and returns the
/// non-dominated solutions found. All solvers follow the objective
/// count reported by fn.num_objectives() (2 or 3); the 2-objective
/// output is bitwise-unchanged by the 3-objective support.

namespace sparkopt {

/// Weighted Sum: draw `samples` random configurations, evaluate them all,
/// and for each of `num_weights` evenly spaced weight vectors return the
/// sample minimizing the weighted sum of min-max-normalized objectives
/// (the paper's WS with 10k samples and 11 weight pairs). The returned
/// Pareto set is the non-dominated subset of the winners; it is empty
/// when no sample is drawn.
struct WsOptions {
  int samples = 10000;
  int num_weights = 11;
  uint64_t seed = 1;
};
MooRunResult SolveWeightedSum(const QueryObjectiveFn& fn,
                              const FlatProblem& decoder,
                              const WsOptions& opts);

/// Single-objective with fixed weights (SO-FW, Expt 10): one weighted-sum
/// scalarization solved by sampling; returns one solution, or none when
/// no sample scores below +inf (no samples, or non-finite weights).
MooRunResult SolveSoFixedWeights(const QueryObjectiveFn& fn,
                                 const FlatProblem& decoder,
                                 const std::vector<double>& weights,
                                 int samples, uint64_t seed);

/// Evolutionary baseline: NSGA-II with simulated-binary crossover and
/// polynomial mutation (population 100, 500 evaluations by default, as
/// reported in Expt 6).
struct EvoOptions {
  int population = 100;
  int max_evaluations = 500;
  double crossover_prob = 0.9;
  double mutation_prob_scale = 1.0;  ///< per-gene prob = scale / dims
  uint64_t seed = 1;
};
MooRunResult SolveEvo(const QueryObjectiveFn& fn, const FlatProblem& decoder,
                      const EvoOptions& opts);

/// Progressive Frontier (UDAO): finds the two extreme points, then
/// repeatedly subdivides the largest uncertain rectangle by solving a
/// constrained single-objective problem in its middle (constrained
/// sampling + local refinement stands in for MOGD).
struct PfOptions {
  int max_points = 12;          ///< Pareto points to construct
  int inner_samples = 600;      ///< samples per constrained solve
  int refine_steps = 40;        ///< local-perturbation refinement steps
  uint64_t seed = 1;
};
MooRunResult SolveProgressiveFrontier(const QueryObjectiveFn& fn,
                                      const FlatProblem& decoder,
                                      const PfOptions& opts);

}  // namespace sparkopt
