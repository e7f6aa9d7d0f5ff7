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

}  // namespace sparkopt
