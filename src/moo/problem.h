#pragma once

#include <vector>

#include "common/pareto.h"
#include "common/status.h"
#include "params/spark_params.h"

/// \file problem.h
/// \brief Interfaces between the MOO algorithms and the objective models.
///
/// All solvers minimize k objectives: analytical latency (seconds) and
/// cloud cost (dollars) by default (k = 2), optionally plus IO volume
/// (gigabytes, k = 3) — see num_objectives() on each interface. Two
/// problem shapes exist:
///  - subQ-separable (HMOOC): objectives are evaluated per subQ and summed
///    (Definition 5.1); exposed by SubQObjectiveModel.
///  - monolithic (WS / Evo / PF baselines): a flat decision vector covers
///    theta_c plus one theta_p/theta_s copy per subQ (fine-grained) or a
///    single copy (query-level control); exposed by QueryObjectiveFn.

namespace sparkopt {

class SubQEvaluator;

/// What is left of the deleted multi-fidelity screen (DESIGN.md section
/// 13): read only by bench/suite/layer_trace.cc, through
/// HmoocOptions::fidelity, until the benchmark next changes. The solvers
/// ignore it.
enum class FidelityMode { kOff };

struct FidelityOptions {
  FidelityMode mode = FidelityMode::kOff;
};

/// \brief Per-subQ objective evaluation phi(subQ_i; theta).
///
/// `conf` is a full 19-dim raw Spark configuration (theta_c + theta_p +
/// theta_s); implementations ignore the components that do not apply.
class SubQObjectiveModel {
 public:
  virtual ~SubQObjectiveModel() = default;

  virtual int num_subqs() const = 0;

  /// Number of objectives every Evaluate/EvaluateBatch vector carries.
  /// 2 = {latency, cost}; 3 adds IO gigabytes. Solvers size their fronts
  /// from this.
  virtual int num_objectives() const { return 2; }

  /// Returns {analytical latency (s), cost ($)[, IO (GB)]} of one subQ.
  ///
  /// Implementations must be safe to call concurrently from solver
  /// worker threads (the HMOOC fan-outs evaluate in parallel).
  virtual ObjectiveVector Evaluate(int subq,
                                   const std::vector<double>& conf) const = 0;

  /// \brief Evaluates one subQ under many configurations in one call
  /// (the solver hot path: one batch per (cluster, subQ) fan-out).
  ///
  /// out[i] corresponds to confs[i] and is bitwise identical to
  /// Evaluate(subq, confs[i]). Rows are written in place: `out->resize(n)`
  /// keeps the rows already there, and each row is resized to
  /// num_objectives() and then assigned, whatever width it held before.
  /// A caller that reuses `out` (see RowList) therefore pays no
  /// allocation per row. The default loops over Evaluate; the concrete
  /// models override it.
  virtual void EvaluateBatch(int subq,
                             const std::vector<std::vector<double>>& confs,
                             std::vector<ObjectiveVector>* out) const;

  /// Number of model evaluations performed so far (for benchmarks).
  virtual size_t eval_count() const = 0;

  /// Unused by the solvers; kept only because bench/suite/ overrides it.
  virtual const SubQEvaluator* screen_evaluator() const { return nullptr; }
};

/// \brief Batch rows (confs or objective vectors) that keep their storage
/// across batches of any size.
///
/// Shrinking a std::vector of rows frees the rows it drops, and solver
/// batches range from 1 to HmoocOptions::theta_p_samples rows. Resize
/// therefore parks the rows past the new size in `spare` and takes them
/// back first when the list grows, so a list reused per thread holds at
/// most its largest batch and, once warm, allocates nothing per row.
struct RowList {
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> spare;

  /// Resizes `rows` to n. Rows taken back from `spare` keep their last
  /// contents; rows new to the list are empty.
  void Resize(size_t n);
};

/// \brief Monolithic objective over a normalized decision vector in
/// [0,1]^dims. Used by the WS / Evo / PF baselines.
class QueryObjectiveFn {
 public:
  virtual ~QueryObjectiveFn() = default;
  virtual size_t dims() const = 0;
  /// Size of every Eval result (2 or 3; see SubQObjectiveModel).
  virtual size_t num_objectives() const { return 2; }
  virtual ObjectiveVector Eval(const std::vector<double>& x) const = 0;
};

/// One solution of the Spark tuning MOO problem.
struct MooSolution {
  ObjectiveVector objectives;             ///< {latency, cost[, io_gb]}
  std::vector<double> conf;               ///< full 19-dim (query-level view)
  /// Fine-grained assignment: full 19-dim configuration per subQ (all
  /// sharing the same theta_c block). Empty for query-level solutions.
  std::vector<std::vector<double>> per_subq_conf;
};

/// Result of one solver invocation.
struct MooRunResult {
  std::vector<MooSolution> pareto;  ///< non-dominated solutions
  double solve_seconds = 0.0;
  size_t evaluations = 0;

  /// WUN-recommended solution index for the given preference weights.
  size_t Recommend(const std::vector<double>& weights) const;
};

/// \brief InvalidArgument unless `weights` holds one finite, non-negative
/// weight per objective. Callers check a preference before they solve
/// with it: WUN would return a valid-looking pick for NaN, infinite or
/// negative weights, and a short preference reads past its end.
Status CheckPreference(const std::vector<double>& weights,
                       int num_objectives);

/// \brief Adapts a SubQObjectiveModel to the monolithic interface.
///
/// Layout of x (normalized): [theta_c (8)] ++ per tuned group
/// [theta_p (9) ++ theta_s (2)]. With `fine_grained` the group count is
/// num_subqs (dims = 8 + 11 m); otherwise one shared group (dims = 19).
class FlatProblem : public QueryObjectiveFn {
 public:
  FlatProblem(const SubQObjectiveModel* model, bool fine_grained);

  size_t dims() const override { return dims_; }
  size_t num_objectives() const override {
    return static_cast<size_t>(model_->num_objectives());
  }
  ObjectiveVector Eval(const std::vector<double>& x) const override;

  /// Decodes a normalized decision vector into per-subQ raw confs.
  MooSolution Decode(const std::vector<double>& x) const;

 private:
  const SubQObjectiveModel* model_;
  bool fine_grained_;
  size_t dims_;
  std::vector<size_t> c_idx_, p_idx_, s_idx_;  // indices into the 19-dim space
};

}  // namespace sparkopt
