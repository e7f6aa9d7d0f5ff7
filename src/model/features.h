#pragma once

#include <array>
#include <vector>

#include "exec/simulator.h"
#include "model/subq_evaluator.h"
#include "params/spark_params.h"

/// \file features.h
/// \brief Feature extraction for the three model targets (Section 4.3).
///
/// The paper encodes the plan with a Graph Transformer Network over
/// operator encodings (type one-hot, cardinality, word-embedded
/// predicates) plus Laplacian positional encoding, concatenated with
/// tabular channels: non-decision variables alpha (input
/// characteristics), beta (partition-size distribution), gamma (runtime
/// contention), and the decision variables theta.
///
/// Our deterministic stand-in replaces the GTN with a Weisfeiler-Lehman
/// style embedding: operator labels are iteratively hashed with their
/// children's labels, each final hash is projected to a signed random
/// basis, and the projections are mean-pooled. Predicate tokens hash into
/// a small signed bag-of-words block (the word2vec substitute). All other
/// channels match the paper's description directly.

namespace sparkopt {

/// Dimensions of the feature blocks.
struct FeatureLayout {
  static constexpr int kOpHistogram = 8;   ///< one slot per OpType
  static constexpr int kWlEmbedding = 12;  ///< WL graph embedding
  static constexpr int kPredicateHash = 8; ///< hashed predicate tokens
  static constexpr int kCardinality = 8;   ///< log-scale size stats
  static constexpr int kAlpha = 2;         ///< input characteristics
  static constexpr int kBeta = 3;          ///< partition distribution
  static constexpr int kGamma = 3;         ///< contention
  static constexpr int kTheta = kNumSparkParams;
  static constexpr int kStageMeta = 8;     ///< join algo, flags, partitions
  /// Derived interaction terms the analytical-latency target depends on
  /// directly (total cores, memory/task, tasks-per-core, bytes-per-core).
  static constexpr int kDerived = 4;

  /// Offset of the theta block in a row; theta entry i sits at
  /// kThetaOffset + i.
  static constexpr int kThetaOffset = kOpHistogram + kWlEmbedding +
                                      kPredicateHash + kCardinality +
                                      kAlpha + kBeta + kGamma;

  static constexpr int Total() {
    return kThetaOffset + kTheta + kStageMeta + kDerived;
  }
};

/// beta: partition-size distribution statistics (sigma/mu, (max-mu)/mu,
/// (max-min)/mu), exactly the three ratios in Section 4.3, over the
/// per-task sizes the runs expand to.
std::vector<double> PartitionDistributionStats(
    const std::vector<PartitionRun>& partitions);

/// gamma: contention vector from a stage-execution record.
std::vector<double> ContentionStats(const StageExecution& se);

/// \brief Extracts features for one subQ/QS sample.
///
/// `stage` is the realized (or hypothesized) query stage; `ops` indexes
/// into `plan`. `use_true_cards` selects runtime (true) vs compile-time
/// (estimated) cardinalities. For the compile-time subQ target pass
/// beta = {} and gamma = {} (the uniform/no-contention assumption); for
/// the runtime QS target pass observed values and set `drop_theta_p` so
/// the already-applied plan parameters are zeroed.
///
/// It writes the row with the block writers below, split by what fixes
/// each block (subQ, slice, stage, theta_c, row), plus beta and gamma.
/// The stage table (model/stage_table.h) keeps the fixed blocks and
/// assembles compile-time rows from the same writers, so both paths
/// write the same bits.
std::vector<double> StageFeatures(
    const LogicalPlan& plan, const QueryStage& stage,
    const std::vector<double>& conf, bool use_true_cards,
    const std::vector<double>& beta, const std::vector<double>& gamma,
    bool drop_theta_p);

// Block writers. Each writes only its own slots of a FeatureLayout::Total()
// row `f`; the first one adds into slots that must start at zero.

/// Per subQ: the op histogram, WL embedding, predicate hashes, alpha and
/// the operator count of the stage executing `op_ids`.
void WriteSubQFeatures(const LogicalPlan& plan, const std::vector<int>& op_ids,
                       bool use_true_cards, double* f);

/// Per theta_p/theta_s slice: conf's normalized theta_p and theta_s
/// entries, theta_p zeroed when `drop_theta_p`.
void WriteSliceFeatures(const std::vector<double>& conf, bool drop_theta_p,
                        double* f);

/// Per stage: the cardinality block, FeatureLayout::kCardinality values
/// written to `block`. It does not read the stage's partition count.
void WriteCardinalityBlock(const StageScalars& stage, double* block);

/// Per stage: the cardinality block `cardinality` (WriteCardinalityBlock
/// of `stage`) and the join and stage flags.
void WriteStageFeatures(const StageScalars& stage, const double* cardinality,
                        double* f);

/// The theta_c block of a row, fixed by theta_c alone: conf's normalized
/// theta_c and the two derived terms no stage enters.
struct ContextFeatures {
  std::array<double, kAdvisoryPartitionSizeMb> theta{};
  double cores = 1.0;       ///< total cores, at least 1
  double log_cores = 0.0;   ///< Log1p(cores)
  double log_memory = 0.0;  ///< Log1p(memory per task, MB)
};

/// conf's theta_c block; `theta_c` is conf's decoded theta_c.
ContextFeatures MakeContextFeatures(const std::vector<double>& conf,
                                    const ContextParams& theta_c);

/// Per row: the theta_c block, the stage's partition count and the
/// derived terms that read the stage.
void WriteRowFeatures(const ContextFeatures& theta_c,
                      const StageScalars& stage, double* f);

/// \brief Pooled features of a collapsed plan (the LQP-bar target): mean
/// of the member subQ stage features over the *remaining* subQs plus the
/// count of remaining subQs appended.
std::vector<double> CollapsedPlanFeatures(
    const LogicalPlan& plan, const std::vector<QueryStage>& remaining_stages,
    const std::vector<double>& conf, const std::vector<double>& gamma);

}  // namespace sparkopt
