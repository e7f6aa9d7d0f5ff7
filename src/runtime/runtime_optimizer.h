#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "exec/aqe.h"
#include "model/subq_evaluator.h"

/// \file runtime_optimizer.h
/// \brief Runtime optimization (Section 5.2): the AQE-side half of the
/// hybrid approach.
///
/// Two entry points, matching steps 6 and 9 of Figure 2:
///  - collapsed-plan requests re-optimize theta_p for the remaining subQs
///    using the true statistics of completed stages;
///  - query-stage requests re-optimize theta_s for stages about to run.
///
/// Requests are pruned by the runtime semantics of the parametric rules
/// (Appendix C.2.2): LQP rules only decide join algorithms, so requests
/// for join-free remainders are skipped and join requests are deferred
/// until all inputs have completed; QS rules only rebalance post-shuffle
/// partitions, so scan stages and stages smaller than the advisory
/// partition size are skipped. The paper reports 86% / 92% of calls
/// eliminated this way.
///
/// The optimizer runs in a simulated client-server loop: each request
/// that is actually sent charges a fixed round-trip overhead.

namespace sparkopt {

/// Counters for the pruning experiment.
struct RequestStats {
  int lqp_sent = 0;
  int lqp_pruned = 0;
  int qs_sent = 0;
  int qs_pruned = 0;

  int TotalSent() const { return lqp_sent + qs_sent; }
  int TotalPruned() const { return lqp_pruned + qs_pruned; }
  double PrunedFraction() const {
    const int total = TotalSent() + TotalPruned();
    return total > 0 ? static_cast<double>(TotalPruned()) / total : 0.0;
  }
};

struct RuntimeOptimizerOptions {
  /// Candidate theta_p samples evaluated per collapsed-plan request.
  int theta_p_candidates = 24;
  /// Candidate theta_s samples evaluated per query-stage request.
  int theta_s_candidates = 12;
  /// Preference weights (latency, cost) for picking from candidate sets.
  std::vector<double> preference = {0.9, 0.1};
  /// Simulated client-server round trip per sent request (seconds).
  double request_overhead_s = 0.015;
  /// Disable pruning (ablation of Appendix C.2.2).
  bool enable_pruning = true;
  /// Worker threads for the per-subQ re-solves and candidate evaluation
  /// fan-outs. 0 = hardware concurrency, 1 = sequential. Results are
  /// bitwise identical at any thread count (index-addressed outputs; RNG
  /// draws stay on the calling thread).
  int num_threads = 0;
  uint64_t seed = 99;
};

/// \brief AqeHooks implementation backed by the subQ evaluator with
/// runtime (completed-subQ) statistics.
class RuntimeOptimizer : public AqeHooks {
 public:
  RuntimeOptimizer(const SubQEvaluator* evaluator,
                   RuntimeOptimizerOptions opts);

  /// Must be called with the submitted theta_c before execution starts
  /// (the runtime optimizer tunes theta_p/theta_s under a fixed context).
  void set_context(const ContextParams& theta_c) { context_ = theta_c; }

  /// Seeds the candidate sets with the compile-time fine-grained per-subQ
  /// parameters ("ideally, one could copy theta_p and theta_s from the
  /// initial subQ" — Appendix C.2.1). Spark only accepts the aggregated
  /// copy at submission; the runtime optimizer restores the fine-grained
  /// intent once AQE is in control.
  void set_compile_time_solution(std::vector<PlanParams> theta_p,
                                 std::vector<StageParams> theta_s) {
    init_theta_p_ = std::move(theta_p);
    init_theta_s_ = std::move(theta_s);
  }

  void OnPlanCollapsed(const LogicalPlan& plan,
                       const std::vector<SubQuery>& subqs,
                       const std::vector<bool>& completed_subqs,
                       std::vector<PlanParams>* theta_p) override;

  void OnStagesReady(const PhysicalPlan& plan,
                     const std::vector<int>& ready_stage_ids,
                     const std::vector<SubQuery>& subqs,
                     std::vector<StageParams>* theta_s) override;

  const RequestStats& stats() const { return stats_; }
  /// Total simulated optimizer-call overhead accumulated (seconds).
  double overhead_seconds() const { return overhead_s_; }

 private:
  const SubQEvaluator* evaluator_;
  RuntimeOptimizerOptions opts_;
  ThreadPool workers_;
  RequestStats stats_;
  double overhead_s_ = 0.0;
  ContextParams context_;
  std::vector<bool> last_completed_;
  std::vector<PlanParams> last_theta_p_;
  std::vector<PlanParams> init_theta_p_;
  std::vector<StageParams> init_theta_s_;
};

/// \brief Aggregates fine-grained compile-time theta_p/theta_s into the
/// single copy Spark accepts at submission (Appendix C.2.1): the join
/// thresholds take the minimum over join-bearing subQs (lower-bounded by
/// the Spark defaults so small scan-side broadcasts are not missed);
/// remaining parameters take the median across subQs.
void AggregateForSubmission(const std::vector<std::vector<double>>&
                                per_subq_conf,
                            const std::vector<SubQuery>& subqs,
                            PlanParams* theta_p, StageParams* theta_s);

}  // namespace sparkopt
