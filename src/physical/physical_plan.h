#pragma once

#include <vector>

#include "common/status.h"
#include "params/spark_params.h"
#include "plan/logical_plan.h"

/// \file physical_plan.h
/// \brief Physical query plans: the result of applying Spark's parametric
/// optimization rules (join-algorithm selection via s3/s4, partition
/// sizing via s1/s5/s8/s9, skew splitting via s6/s7) to a logical plan
/// under a concrete configuration.
///
/// A physical plan is a DAG of query stages (QS). Broadcast hash joins
/// merge the join into its probe child's stage and turn the build child's
/// stage into a broadcast dependency, exactly the structural change AQE
/// exploits at runtime.

namespace sparkopt {

/// Join algorithm chosen by the parametric rules.
enum class JoinAlgo {
  kSortMergeJoin = 0,   ///< SMJ: shuffle both sides, sort, merge
  kShuffledHashJoin,    ///< SHJ: shuffle both sides, hash the build side
  kBroadcastHashJoin    ///< BHJ: broadcast the build side, pipeline probe
};

const char* JoinAlgoName(JoinAlgo a);

/// Per-join decision record (op id -> algorithm), for inspection and for
/// the Figure 3(b) analysis.
struct JoinDecision {
  int op_id = -1;
  JoinAlgo algo = JoinAlgo::kSortMergeJoin;
  double build_side_mb = 0.0;  ///< believed build-side size at decision time
  int build_op = -1;           ///< logical op id of the chosen build side
};

/// \brief `count` consecutive tasks of a stage that each read `bytes`
/// input bytes.
struct PartitionRun {
  int count = 1;
  double bytes = 0.0;
};

/// \brief The scalar fields of a query stage: everything the task cost
/// model reads. Trivially copyable, so a table of stages can keep one per
/// entry without the stage's vectors.
struct StageScalars {
  int id = -1;
  int subq_id = -1;            ///< canonical subQ this stage realizes
  int num_partitions = 1;      ///< number of parallel tasks

  double input_rows = 0.0;     ///< total rows entering the stage
  double input_bytes = 0.0;    ///< total bytes entering the stage
  double output_rows = 0.0;    ///< rows produced by the stage root
  double output_bytes = 0.0;
  double shuffle_read_bytes = 0.0;   ///< bytes read over the network
  double broadcast_bytes = 0.0;      ///< bytes received via broadcast
  bool is_scan_stage = false;
  bool exchanges_output = true;      ///< writes a shuffle (non-root stages)

  /// Sum over member operators of (per-row CPU weight x rows processed);
  /// the task cost model divides this across partitions.
  double cpu_work = 0.0;
  /// Extra n log n work (sorts, SMJ) already folded into cpu_work, kept
  /// separately for inspection.
  double sort_work = 0.0;
  JoinAlgo join_algo = JoinAlgo::kSortMergeJoin;
  bool has_join = false;
};

/// \brief One executable query stage.
struct QueryStage : StageScalars {
  std::vector<int> op_ids;     ///< logical operators executed here
  std::vector<int> deps;       ///< stages shuffled into this one
  std::vector<int> broadcast_deps;  ///< stages broadcast into this one
  /// Per-task input bytes after the partitioning rules (skew split,
  /// coalesce), in task order, as runs of equal sizes. Canonical: every
  /// count is >= 1, adjacent runs differ in bytes, and the counts sum to
  /// num_partitions. Drives task latencies and the beta features.
  std::vector<PartitionRun> partitions;
};

/// \brief A physical plan: stage DAG plus join decisions.
struct PhysicalPlan {
  std::vector<QueryStage> stages;
  std::vector<JoinDecision> join_decisions;

  /// Stage ids in dependency (topological) order.
  std::vector<int> ExecutionOrder() const;
  int CountJoins(JoinAlgo algo) const;
};

/// How the planner should read operator cardinalities.
enum class CardinalitySource {
  kEstimated,  ///< compile time: CBO estimates
  kTrue        ///< runtime/oracle: observed cardinalities
};

/// \brief The cardinality each operator shows the planning rules: the
/// observed one under kTrue or once its subQ has completed (AQE
/// re-planning), otherwise the CBO estimate.
///
/// `subq_of_op` maps operator id to subQ id. `completed_subqs` may be
/// null or shorter than the subQ count; a missing entry has not
/// completed. The view holds references to all three.
class BelievedCardinality {
 public:
  BelievedCardinality(const LogicalPlan& plan,
                      const std::vector<int>& subq_of_op,
                      CardinalitySource source,
                      const std::vector<bool>* completed_subqs)
      : plan_(plan),
        subq_of_op_(subq_of_op),
        source_(source),
        completed_(completed_subqs) {}

  double rows(int op) const {
    return observed(op) ? plan_.op(op).true_rows : plan_.op(op).est_rows;
  }
  double bytes(int op) const {
    return observed(op) ? plan_.op(op).true_bytes : plan_.op(op).est_bytes;
  }

 private:
  bool observed(int op) const {
    if (source_ == CardinalitySource::kTrue) return true;
    if (completed_ == nullptr) return false;
    const int sq = subq_of_op_[op];
    return sq >= 0 && sq < static_cast<int>(completed_->size()) &&
           (*completed_)[sq];
  }

  const LogicalPlan& plan_;
  const std::vector<int>& subq_of_op_;
  CardinalitySource source_;
  const std::vector<bool>* completed_;
};

/// \brief Applies the parametric physical-planning rules.
///
/// `theta_p_per_subq` supplies one PlanParams per canonical subQ
/// (fine-grained tuning); pass a single-element vector for query-level
/// (coarse) control — it is then used for every subQ. `theta_s_per_subq`
/// likewise. `completed_subqs`, if non-empty, marks subQs whose true
/// cardinalities are known (AQE re-planning): operators inside them read
/// true stats regardless of `source`.
class PhysicalPlanner {
 public:
  PhysicalPlanner(const LogicalPlan* plan, std::vector<SubQuery> subqs);

  Result<PhysicalPlan> Plan(const ContextParams& theta_c,
                            const std::vector<PlanParams>& theta_p_per_subq,
                            const std::vector<StageParams>& theta_s_per_subq,
                            CardinalitySource source,
                            const std::vector<bool>& completed_subqs = {}) const;

  const std::vector<SubQuery>& subqueries() const { return subqs_; }
  /// SubQ id of each logical operator, indexed by op id.
  const std::vector<int>& subq_of_op() const { return subq_of_; }

 private:
  const LogicalPlan* plan_;
  std::vector<SubQuery> subqs_;
  std::vector<int> subq_of_;
};

/// \brief Spark's join selection for `join` (at least two children)
/// under `theta_p`. The build side is the child with the smaller believed
/// bytes (the first on ties). The join broadcasts (BHJ) when that side
/// fits s4 and its believed rows fill enough of s5's partitions for s2,
/// hashes (SHJ) when it fits s3, and sort-merges (SMJ) otherwise.
JoinDecision ChooseJoin(const LogicalOperator& join,
                        const PlanParams& theta_p,
                        const BelievedCardinality& card);

/// \brief Spark's partitioning of one stage, from its `input_bytes`,
/// `is_scan_stage` and `has_join`: the file-scan split on scan stages
/// (ScanPartitionCount), otherwise s5's shuffle partitions, capped at
/// 4096; the input spread over them with key skew `skew`
/// (SkewedPartitionSizes); then, on shuffle stages, AQE's skew split
/// (s6/s7, join stages only) and coalescing (s1/s10/s11). Writes
/// `num_partitions` and `partitions`. Only a scan stage reads `theta_c`,
/// and only its default parallelism (k4).
void PartitionStage(const ContextParams& theta_c, const PlanParams& theta_p,
                    const StageParams& theta_s, double skew,
                    QueryStage* stage);

/// \brief Spark's file-scan split, the task count PartitionStage gives a
/// scan stage reading `input_bytes`: maxSplitBytes = min(s8, max(s9,
/// total / k4)), one task per split, capped at 4096.
int ScanPartitionCount(double input_bytes, int default_parallelism,
                       const PlanParams& theta_p);

/// \brief `n` equal partitions of `total_bytes`: the one run
/// (n, total_bytes * (1.0 / n)). SkewedPartitionSizes returns it at
/// z = 0.
PartitionRun UniformRun(double total_bytes, int n);

// The three rules below take and return partitions as runs. Each returns
// canonical runs (see QueryStage::partitions) that expand to exactly the
// per-partition sizes, bit for bit, that the same rule computes one
// partition at a time.

/// \brief Builds the per-partition byte distribution for `total_bytes`
/// split into `n` partitions with Zipf-like skew `z` in [0,1] (0 =
/// uniform). Deterministic. At z = 0 this is the single run
/// (n, total_bytes * (1.0 / n)); otherwise one run per distinct size.
std::vector<PartitionRun> SkewedPartitionSizes(double total_bytes, int n,
                                               double z);

/// \brief Runtime skew-split rule (s6/s7): splits any partition larger
/// than max(threshold_mb, factor x median) into advisory-sized chunks.
std::vector<PartitionRun> ApplySkewSplit(std::vector<PartitionRun> partitions,
                                         double threshold_mb, double factor,
                                         double advisory_mb);

/// \brief Runtime coalesce/rebalance rule (s1, s10, s11): greedily merges
/// adjacent partitions smaller than max(min_size_mb,
/// small_factor x advisory_mb) up to the advisory size.
std::vector<PartitionRun> ApplyCoalesce(std::vector<PartitionRun> partitions,
                                        double advisory_mb,
                                        double small_factor,
                                        double min_size_mb);

}  // namespace sparkopt
