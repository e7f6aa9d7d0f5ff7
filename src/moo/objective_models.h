#pragma once

#include <atomic>
#include <memory>

#include "model/features.h"
#include "model/mlp.h"
#include "model/stage_table.h"
#include "model/subq_evaluator.h"
#include "moo/problem.h"

/// \file objective_models.h
/// \brief Concrete phi implementations backing the MOO solvers.
///
/// AnalyticSubQModel evaluates the white-box compile-time cost directly
/// (CBO-estimated cardinalities, uniform-partition and no-contention
/// assumptions — exactly the paper's compile-time modeling constraints).
/// LearnedSubQModel runs the trained subQ regressor on extracted features,
/// reproducing the paper's learned-model optimization loop including its
/// model error.
///
/// Both models answer EvaluateBatch from a per-solve StageTable
/// (model/stage_table.h): each distinct (subQ, theta_p/theta_s slice)
/// stage is built once, and each row pays only for what its call has not
/// already computed. Within a call, rows with equal theta_c bits share
/// one decode; the analytic model costs each distinct (table entry,
/// partition count) once and copies the bits to the rest, and the
/// learned model writes the theta_c feature block once. Every batched
/// row equals Evaluate on its conf bit for bit, whatever else shares the
/// batch; Evaluate stays the direct path, and rows whose slice the table
/// cannot hold take it too. SPARKOPT_VERIFY builds check every table row
/// against the direct path.

namespace sparkopt {

/// \brief White-box compile-time phi: wraps SubQEvaluator.
class AnalyticSubQModel : public SubQObjectiveModel {
 public:
  /// The trailing size_t is ignored; bench/suite/ still passes it.
  AnalyticSubQModel(const Query* query, const ClusterSpec& cluster,
                    const CostModelParams& cost,
                    const PriceBook& prices = PriceBook(), size_t = 0)
      : evaluator_(query, cluster, cost, prices),
        table_(&evaluator_, /*with_features=*/false) {}

  int num_subqs() const override { return evaluator_.num_subqs(); }
  int num_objectives() const override { return num_objectives_; }

  /// Switches between {latency, cost} (k = 2, default) and
  /// {latency, cost, io_gb} (k = 3). Call before solving; k = 2 output
  /// is unchanged by the existence of this knob.
  void set_num_objectives(int k);

  ObjectiveVector Evaluate(int subq,
                           const std::vector<double>& conf) const override;

  /// Stage-table rows (see the file comment); each counts in
  /// eval_count(), `model.inferences` and `model.inference_us` as an
  /// Evaluate call does.
  void EvaluateBatch(int subq,
                     const std::vector<std::vector<double>>& confs,
                     std::vector<ObjectiveVector>* out) const override;

  size_t eval_count() const override {
    return evals_.load(std::memory_order_relaxed);
  }

 private:
  /// Writes {latency, cost[, io_gb]} into `out` in place (the
  /// EvaluateBatch row contract, moo/problem.h).
  void ToObjectives(const SubQObjectives& obj, ObjectiveVector* out) const;

  SubQEvaluator evaluator_;
  mutable StageTable table_;
  int num_objectives_ = 2;
  // Relaxed atomic: solver worker threads evaluate concurrently.
  mutable std::atomic<size_t> evals_{0};
};

/// \brief Learned phi: features from the hypothesized stage, predictions
/// from the trained subQ regressor; cost derived from predicted latency
/// and IO via the price book (the paper's cost objective construction).
/// Inference runs on the calling thread, in direct solves and tuning
/// service sessions alike.
class LearnedSubQModel : public SubQObjectiveModel {
 public:
  /// The trailing size_t is ignored; bench/suite/ still passes it.
  LearnedSubQModel(const Query* query, const ClusterSpec& cluster,
                   const CostModelParams& cost, const Regressor* subq_model,
                   const PriceBook& prices = PriceBook(), size_t = 0)
      : evaluator_(query, cluster, cost, prices),
        table_(&evaluator_, /*with_features=*/true),
        model_(subq_model),
        prices_(prices) {}

  int num_subqs() const override { return evaluator_.num_subqs(); }
  int num_objectives() const override { return num_objectives_; }

  /// See AnalyticSubQModel::set_num_objectives. The learned third
  /// objective is the regressor's predicted IO converted to gigabytes.
  void set_num_objectives(int k);

  ObjectiveVector Evaluate(int subq,
                           const std::vector<double>& conf) const override;

  /// True batched path: stage-table features (see the file comment) in
  /// one flat row-major buffer, a single Regressor::PredictBatchInto
  /// call, then the per-row latency/cost derivation. Every row is bitwise
  /// identical to Evaluate on its conf, whatever else shares the batch,
  /// so a cache layer may escalate any subset of a pool.
  void EvaluateBatch(int subq,
                     const std::vector<std::vector<double>>& confs,
                     std::vector<ObjectiveVector>* out) const override;

  size_t eval_count() const override {
    return evals_.load(std::memory_order_relaxed);
  }

 private:
  /// The direct path's features: StageFeatures of BuildStage under conf,
  /// whose decoded theta_c is `tc`.
  std::vector<double> DirectFeatures(int subq,
                                     const std::vector<double>& conf,
                                     const ContextParams& tc) const;
  /// Evaluate without the count.
  ObjectiveVector Direct(int subq, const std::vector<double>& conf) const;

  SubQEvaluator evaluator_;
  mutable StageTable table_;
  const Regressor* model_;
  PriceBook prices_;
  int num_objectives_ = 2;
  mutable std::atomic<size_t> evals_{0};
};

/// \brief Dominance-aware survival selection over tier-0 objectives
/// (2 or 3 objectives — taken from the rows of `tier0` — minimization).
///
/// Candidate i's margin ratio is r_i = min over tier-0 Pareto-front
/// points g of max_d(f_id / g_d) — the smallest uniform scaling
/// of some front point that weakly dominates i. Front members score
/// r = 1, so the exact tier-0 extremes always survive. Survivors are the
/// first max(|{i : r_i <= 1 + margin}|, K) candidates in ascending
/// (r, index) order, with K = max(min_promote, ceil(promote_frac * n))
/// clamped to [min(n, 2), n]; because the margin band is a prefix of
/// that order, a larger margin always yields a superset of survivors.
/// Additionally the top max(1, min_promote / 2) candidates of each
/// single objective are always promoted (the extreme guarantee: boundary
/// DAG aggregation consumes per-objective minima, which the dominance
/// ratio alone can starve). `out` receives the surviving indices in
/// ascending order.
void SelectSurvivors2(const std::vector<ObjectiveVector>& tier0,
                      double survival_margin, int min_promote,
                      double promote_frac, std::vector<size_t>* out);

/// \brief Tiered (multi-fidelity) phi: a cheap tier-0 screen over the
/// whole batch, full tier-1 evaluation of the survivors only.
///
/// Wraps any SubQObjectiveModel. EvaluateBatch screens every conf with
/// the subQ's distilled tier-0 regressor (FidelityOptions::distilled),
/// selects survivors with SelectSurvivors2, and escalates only those to
/// tier1->EvaluateBatch. Pruned entries are reported as {+inf, +inf}:
/// any finite point dominates them, so they can never enter a Pareto
/// front — and the >= 2 survivor floor guarantees finite points exist.
/// Single-point Evaluate calls pass through to tier 1 unscreened (they
/// are not a pool to thin). Screening a batch requires usable().
///
/// eval_count() delegates to tier 1, so MooRunResult::evaluations shows
/// exactly the full-fidelity evaluations the screen saved.
class ScreeningSubQModel : public SubQObjectiveModel {
 public:
  ScreeningSubQModel(const SubQObjectiveModel* tier1,
                     const FidelityOptions& fidelity)
      : tier1_(tier1), fidelity_(fidelity) {}

  /// False unless the mode is kDistilled with one trained screen per
  /// subQ, each predicting one value per tier-1 objective. Callers
  /// should fall back to tier 1.
  bool usable() const;

  int num_subqs() const override { return tier1_->num_subqs(); }
  int num_objectives() const override { return tier1_->num_objectives(); }

  ObjectiveVector Evaluate(int subq,
                           const std::vector<double>& conf) const override {
    return tier1_->Evaluate(subq, conf);
  }

  void EvaluateBatch(int subq,
                     const std::vector<std::vector<double>>& confs,
                     std::vector<ObjectiveVector>* out) const override;

  size_t eval_count() const override { return tier1_->eval_count(); }

  /// Tier counters (across all batches; worker-thread safe).
  uint64_t tier0_evals() const {
    return tier0_evals_.load(std::memory_order_relaxed);
  }
  uint64_t tier1_evals() const {
    return tier1_evals_.load(std::memory_order_relaxed);
  }
  uint64_t screened_batches() const {
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  const SubQObjectiveModel* tier1_;
  FidelityOptions fidelity_;
  mutable std::atomic<uint64_t> tier0_evals_{0};
  mutable std::atomic<uint64_t> tier1_evals_{0};
  mutable std::atomic<uint64_t> batches_{0};
};

/// \brief Trains one tiny tier-0 screen per subQ for FidelityMode::
/// kDistilled: `samples` LHS-sampled full confs are labeled by the
/// tier-1 model (EvaluateBatch), a mid-capacity teacher regressor fits
/// conf -> the tier-1 objective vector (k = tier1.num_objectives())
/// per subQ, and Regressor::Distill compresses
/// it into the final tiny student over a 2x teacher-pseudo-labeled
/// sample. Deterministic given `seed`. The tier-1 labeling counts
/// toward tier1's eval_count (it is real full-fidelity work), but
/// HmoocSolver::Solve trains before it snapshots eval_count, so the
/// labeling stays out of MooRunResult::evaluations.
Result<std::vector<Regressor>> TrainDistilledScreens(
    const SubQObjectiveModel& tier1, int samples, uint64_t seed);

}  // namespace sparkopt
