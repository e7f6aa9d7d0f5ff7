#pragma once

#include <string>
#include <vector>

#include "exec/aqe.h"
#include "moo/baselines.h"
#include "moo/hmooc.h"
#include "moo/objective_models.h"
#include "obs/report.h"
#include "runtime/runtime_optimizer.h"

/// \file tuner.h
/// \brief The Optimizer for Parameter Tuning (OPT): the paper's top-level
/// system. Given a query and a cost-performance preference, it runs
/// compile-time multi-objective optimization, recommends a configuration
/// by Weighted-Utopia-Nearest, aggregates fine-grained theta_p/theta_s
/// into the single submission copy Spark accepts, and executes the query
/// with (HMOOC3+) or without (HMOOC3) the runtime optimizer plugged into
/// AQE. Baseline methods from the evaluation section are provided behind
/// the same interface.

namespace sparkopt {

/// Tuning method (the systems compared in Section 6.3).
enum class TuningMethod {
  kDefault = 0,   ///< Spark defaults, plain AQE
  kHmooc3,        ///< compile-time fine-grained MOO only
  kHmooc3Plus,    ///< + runtime optimization (the full system)
  kMoWs,          ///< query-level Weighted Sum MOO (the strongest prior)
  kSoFixedWeights,///< single objective with fixed weights (SO-FW)
  kEvoQuery,      ///< NSGA-II, query-level control
  kPfQuery        ///< Progressive Frontier, query-level control
};

const char* TuningMethodName(TuningMethod m);

struct TunerOptions {
  ClusterSpec cluster;
  CostModelParams cost_params;
  PriceBook prices;
  /// Preference weights over (latency, cost); also used by WUN.
  std::vector<double> preference = {0.9, 0.1};
  HmoocOptions hmooc;
  WsOptions mo_ws;
  EvoOptions evo;
  PfOptions pf;
  RuntimeOptimizerOptions runtime;
  /// Worker threads for the solver and runtime-optimizer fan-outs.
  /// -1 = keep whatever `hmooc.num_threads` / `runtime.num_threads` say;
  /// >= 0 overrides both (0 = hardware concurrency, 1 = sequential).
  int num_threads = -1;
  int so_fw_samples = 3000;
  /// Learned subQ model (nullptr = analytic compile-time model).
  const Regressor* learned_subq_model = nullptr;
  /// Ignored; bench/suite/ still sets it.
  size_t eval_cache_capacity = 0;
  uint64_t seed = 17;
};

/// Outcome of tuning + executing one query.
struct TuningOutcome {
  TuningMethod method = TuningMethod::kDefault;
  /// Query name (for reports).
  std::string query_name;
  /// Compile-time MOO result (empty Pareto set for kDefault).
  MooRunResult moo;
  /// The WUN-chosen solution (defaults for kDefault).
  MooSolution chosen;
  /// Actual (simulated) adaptive execution under the chosen parameters.
  AqeResult execution;
  /// Compile-time solving time in seconds.
  double solve_seconds = 0.0;
  /// Runtime optimizer request statistics (kHmooc3Plus only).
  RequestStats runtime_stats;
  double runtime_overhead_seconds = 0.0;
};

/// \brief Assembles the observability record of one tuning session from
/// the outcome plus the metrics and spans the instrumented pipeline
/// recorded into `session` (see src/obs/report.h).
///
/// The session should cover exactly one `Tuner::Run` call; counters are
/// cumulative, so reuse a session across queries only for aggregates.
obs::TuningReport BuildTuningReport(const TuningOutcome& outcome,
                                    const obs::Session& session);

/// \brief Facade running one tuning method end to end on one query.
class Tuner {
 public:
  explicit Tuner(TunerOptions opts) : opts_(std::move(opts)) {}

  Result<TuningOutcome> Run(const Query& query, TuningMethod method) const;

  /// Executes the query under an explicit configuration (used for the
  /// default baseline and for ablations).
  Result<TuningOutcome> RunWithConfig(const Query& query,
                                      const std::vector<double>& conf,
                                      bool runtime_opt = false) const;

  const TunerOptions& options() const { return opts_; }

 private:
  TunerOptions opts_;
};

}  // namespace sparkopt
