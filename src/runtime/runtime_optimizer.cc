#include "runtime/runtime_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/pareto_flat.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "params/sampler.h"

namespace sparkopt {

namespace {

// theta_p (9 dims) and theta_s (2 dims) subspaces.
const ParamSpace& PlanSpace() {
  static const ParamSpace space =
      SparkParamSpace().Subspace(ParamCategory::kPlan);
  return space;
}
const ParamSpace& StageSpace() {
  static const ParamSpace space =
      SparkParamSpace().Subspace(ParamCategory::kStage);
  return space;
}

PlanParams PlanFromSub(const std::vector<double>& sub) {
  std::vector<double> conf = DefaultSparkConfig();
  for (size_t i = 0; i < sub.size() && i < 9; ++i) conf[8 + i] = sub[i];
  return DecodePlan(conf);
}
StageParams StageFromSub(const std::vector<double>& sub) {
  std::vector<double> conf = DefaultSparkConfig();
  for (size_t i = 0; i < sub.size() && i < 2; ++i) conf[17 + i] = sub[i];
  return DecodeStage(conf);
}

// Weighted pick over candidates' (latency, cost[, io_gb]), normalized by
// the incumbent (candidate 0): score(c) = w0 * lat_c / lat_0 + w1 *
// cost_c / cost_0 (+ w2 * io_c / io_0 under a 3-weight preference), so
// the incumbent scores exactly sum(w). A challenger is adopted only when
// its score beats sum(w) * (1 - hysteresis), keeping runtime
// re-optimization from churning on prediction noise. The 2-weight score
// is bitwise-unchanged by the optional IO term.
size_t PickWeighted(const std::vector<SubQObjectives>& cands,
                    const std::vector<double>& w,
                    double hysteresis = 0.0) {
  if (cands.empty()) return 0;
  const bool use_io = w.size() >= 3;
  const double lat0 = std::max(cands[0].analytical_latency, 1e-9);
  const double cost0 = std::max(cands[0].cost, 1e-12);
  const double io0 = use_io ? std::max(cands[0].io_bytes / 1e9, 1e-12) : 1.0;
  double w_sum = w[0] + w[1];
  if (use_io) w_sum += w[2];
  size_t best = 0;
  double best_v = w_sum;  // incumbent's score
  for (size_t i = 1; i < cands.size(); ++i) {
    double v = w[0] * cands[i].analytical_latency / lat0 +
               w[1] * cands[i].cost / cost0;
    if (use_io) v += w[2] * (cands[i].io_bytes / 1e9) / io0;
    if (v < best_v) {
      best_v = v;
      best = i;
    }
  }
  if (best != 0 && best_v > w_sum * (1.0 - hysteresis)) return 0;
#ifdef SPARKOPT_VERIFY
  // With all preference weights positive, the weighted argmin is always
  // Pareto-optimal among the candidates; an adopted challenger that the
  // kernel reports as dominated means the scoring and the dominance
  // machinery disagree.
  if (best != 0 && w[0] > 0.0 && w[1] > 0.0 && (!use_io || w[2] > 0.0)) {
    ParetoScratch scratch;
    scratch.ax.resize(cands.size());
    scratch.ay.resize(cands.size());
    for (size_t i = 0; i < cands.size(); ++i) {
      scratch.ax[i] = cands[i].analytical_latency;
      scratch.ay[i] = cands[i].cost;
    }
    if (use_io) {
      scratch.az.resize(cands.size());
      for (size_t i = 0; i < cands.size(); ++i) {
        scratch.az[i] = cands[i].io_bytes / 1e9;
      }
      // FlatParetoPositions3 only consumes scratch.order/sy/sz, so the
      // ax/ay/az staging above can double as its input buffers.
      FlatParetoPositions3(scratch.ax.data(), scratch.ay.data(),
                           scratch.az.data(), cands.size(), &scratch.kept,
                           &scratch);
    } else {
      FlatParetoPositions(scratch.ax.data(), scratch.ay.data(),
                          cands.size(), &scratch.kept, &scratch);
    }
    const bool non_dominated =
        std::find(scratch.kept.begin(), scratch.kept.end(),
                  static_cast<uint32_t>(best)) != scratch.kept.end();
    SPARKOPT_CHECK(non_dominated)
        << "PickWeighted adopted dominated candidate " << best;
  }
#endif
  return best;
}

}  // namespace

RuntimeOptimizer::RuntimeOptimizer(const SubQEvaluator* evaluator,
                                   RuntimeOptimizerOptions opts)
    : evaluator_(evaluator),
      opts_(std::move(opts)),
      workers_(opts_.num_threads) {}

void RuntimeOptimizer::OnPlanCollapsed(const LogicalPlan& plan,
                                       const std::vector<SubQuery>& subqs,
                                       const std::vector<bool>& completed,
                                       std::vector<PlanParams>* theta_p) {
  // Pruning (Appendix C.2.2): LQP parametric rules decide join
  // algorithms, so a request is useful only when some remaining subQ
  // contains a join whose inputs are now all completed.
  const std::vector<int>& subq_of = evaluator_->subq_of_op();
  std::vector<int> actionable;
  for (const auto& sq : subqs) {
    if (completed[sq.id]) continue;
    bool has_ready_join = false;
    for (int op_id : sq.op_ids) {
      const auto& op = plan.op(op_id);
      if (op.type != OpType::kJoin) continue;
      bool inputs_ready = true;
      for (int c : op.children) {
        if (subq_of[c] != sq.id && !completed[subq_of[c]]) {
          inputs_ready = false;
        }
      }
      if (inputs_ready) has_ready_join = true;
    }
    if (has_ready_join) actionable.push_back(sq.id);
  }
  if (opts_.enable_pruning && actionable.empty()) {
    ++stats_.lqp_pruned;
    obs::Count("runtime.lqp_pruned");
    return;
  }
  ++stats_.lqp_sent;
  overhead_s_ += opts_.request_overhead_s;
  obs::Count("runtime.lqp_sent");
  obs::Span span("runtime.lqp_resolve");
  span.Arg("actionable_subqs", static_cast<double>(actionable.size()));
  // Per-resolve latency distribution (p50/p99 for the scrape surface;
  // the span above feeds the phase profile).
  obs::ScopedHistogramTimer resolve_timer(
      obs::HistogramFor("runtime.lqp_resolve_us"));

  // Fine-grained from here on: expand a single shared theta_p.
  const int m = static_cast<int>(subqs.size());
  if (static_cast<int>(theta_p->size()) == 1 && m > 1) {
    theta_p->assign(m, theta_p->front());
  }

  // Re-optimize theta_p of the actionable subQs (all remaining ones when
  // pruning is off) against runtime statistics.
  Rng rng(HashCombine(opts_.seed, stats_.lqp_sent));
  const auto samples = SampleLatinHypercube(
      PlanSpace(), static_cast<size_t>(opts_.theta_p_candidates), &rng,
      /*margin=*/0.05);
  std::vector<int> targets = actionable;
  if (!opts_.enable_pruning) {
    targets.clear();
    for (const auto& sq : subqs) {
      if (!completed[sq.id]) targets.push_back(sq.id);
    }
  }
  // The targets carry distinct subQ ids and the candidate samples were
  // drawn above, so each re-solve is independent: fan the targets out
  // across the workers, each writing only its own theta_p slot.
  workers_.ParallelFor(targets.size(), [&](size_t t) {
    const int sq_id = targets[t];
    // Steady-state solve path: reuse per-worker buffers across tasks and
    // calls instead of reallocating (capacity is retained by clear()).
    thread_local std::vector<PlanParams> cands;
    thread_local std::vector<SubQObjectives> objs;
    cands.clear();
    cands.push_back((*theta_p)[std::min<size_t>(sq_id,
                                                theta_p->size() - 1)]);
    if (!init_theta_p_.empty()) {
      cands.push_back(init_theta_p_[std::min<size_t>(
          sq_id, init_theta_p_.size() - 1)]);
    }
    for (const auto& s : samples) cands.push_back(PlanFromSub(s));
    objs.clear();
    objs.reserve(cands.size());
    for (const auto& cand : cands) {
      objs.push_back(evaluator_->Evaluate(sq_id, context_, cand,
                                          StageParams{},
                                          CardinalitySource::kEstimated,
                                          &completed));
    }
    const size_t best = PickWeighted(objs, opts_.preference, /*hyst=*/0.12);
    (*theta_p)[sq_id] = cands[best];
  });
  last_completed_ = completed;
  last_theta_p_ = *theta_p;
}

void RuntimeOptimizer::OnStagesReady(const PhysicalPlan& plan,
                                     const std::vector<int>& ready,
                                     const std::vector<SubQuery>& subqs,
                                     std::vector<StageParams>* theta_s) {
  const int m = static_cast<int>(subqs.size());
  if (static_cast<int>(theta_s->size()) == 1 && m > 1) {
    theta_s->assign(m, theta_s->front());
  }
  Rng rng(HashCombine(opts_.seed, 0x5A + stats_.qs_sent));
  // Candidate and objective buffers live across the stage loop; each
  // stage clears and refills them instead of reallocating.
  std::vector<StageParams> cands;
  std::vector<SubQObjectives> objs;
  for (int sid : ready) {
    const auto& st = plan.stages[sid];
    // Pruning: QS rules rebalance post-shuffle partitions — skip scan
    // stages and stages below the advisory partition size.
    if (opts_.enable_pruning &&
        (st.is_scan_stage || st.input_bytes < 64.0 * 1024 * 1024)) {
      ++stats_.qs_pruned;
      obs::Count("runtime.qs_pruned");
      continue;
    }
    ++stats_.qs_sent;
    overhead_s_ += opts_.request_overhead_s;
    obs::Count("runtime.qs_sent");
    obs::Span span("runtime.qs_resolve");
    span.Arg("stage", sid);
    obs::ScopedHistogramTimer resolve_timer(
        obs::HistogramFor("runtime.qs_resolve_us"));

    const int sq_id = std::min(st.subq_id, m - 1);
    // Evaluate theta_s candidates under the theta_p actually in force for
    // this stage (from the last collapsed-plan optimization, if any).
    const PlanParams tp =
        last_theta_p_.empty()
            ? PlanParams{}
            : last_theta_p_[std::min<size_t>(sq_id,
                                             last_theta_p_.size() - 1)];
    cands.clear();
    cands.push_back((*theta_s)[sq_id]);
    if (!init_theta_s_.empty()) {
      cands.push_back(init_theta_s_[std::min<size_t>(
          sq_id, init_theta_s_.size() - 1)]);
    }
    const auto samples = SampleLatinHypercube(
        StageSpace(), static_cast<size_t>(opts_.theta_s_candidates), &rng,
        /*margin=*/0.05);
    for (const auto& s : samples) cands.push_back(StageFromSub(s));
    const std::vector<bool>* done =
        last_completed_.empty() ? nullptr : &last_completed_;
    // The stage loop itself is sequential (shared rng; later stages may
    // rewrite the same theta_s slot), but the candidate evaluations are
    // independent — fan them out by index.
    objs.assign(cands.size(), SubQObjectives{});
    workers_.ParallelFor(cands.size(), [&](size_t k) {
      objs[k] = evaluator_->Evaluate(sq_id, context_, tp, cands[k],
                                     CardinalitySource::kEstimated, done);
    });
    const size_t best = PickWeighted(objs, opts_.preference, /*hyst=*/0.12);
    (*theta_s)[sq_id] = cands[best];
  }
}

void AggregateForSubmission(
    const std::vector<std::vector<double>>& per_subq_conf,
    const std::vector<SubQuery>& subqs, PlanParams* theta_p,
    StageParams* theta_s) {
  if (per_subq_conf.empty()) return;
  const auto defaults = DefaultSparkConfig();

  // Median aggregation for the non-threshold parameters.
  auto median_of = [&](size_t idx) {
    std::vector<double> vals;
    vals.reserve(per_subq_conf.size());
    for (const auto& c : per_subq_conf) {
      vals.push_back(idx < c.size() ? c[idx] : defaults[idx]);
    }
    std::sort(vals.begin(), vals.end());
    return vals[vals.size() / 2];
  };

  std::vector<double> agg = defaults;
  for (size_t i = kAdvisoryPartitionSizeMb; i <= kCoalesceMinPartitionSizeMb;
       ++i) {
    agg[i] = median_of(i);
  }

  // Partition-count parameters aggregate asymmetrically: too few shuffle
  // partitions on the heaviest stage is catastrophic (oversized spilling
  // tasks) while too many is mildly wasteful, so s5 takes the maximum
  // across subQs; likewise scan parallelism uses the smallest split size
  // and the advisory size keeps the smallest choice so AQE coalescing
  // stays conservative.
  auto extreme_of = [&](size_t idx, bool take_max) {
    double v = take_max ? -1e300 : 1e300;
    for (const auto& c : per_subq_conf) {
      const double x = idx < c.size() ? c[idx] : defaults[idx];
      v = take_max ? std::max(v, x) : std::min(v, x);
    }
    return v;
  };
  agg[kShufflePartitions] = extreme_of(kShufflePartitions, /*max=*/true);
  agg[kMaxPartitionBytesMb] =
      extreme_of(kMaxPartitionBytesMb, /*max=*/false);
  agg[kAdvisoryPartitionSizeMb] =
      extreme_of(kAdvisoryPartitionSizeMb, /*max=*/false);

  // Join thresholds: smallest value among join-bearing subQs, floored at
  // the Spark defaults (Appendix C.2.1) so BHJs on small scan-side inputs
  // are not missed while overeager compile-time broadcasts are avoided.
  double min_bc = std::numeric_limits<double>::infinity();
  double min_shj = std::numeric_limits<double>::infinity();
  for (const auto& sq : subqs) {
    if (!sq.has_join) continue;
    if (sq.id >= static_cast<int>(per_subq_conf.size())) continue;
    const auto& c = per_subq_conf[sq.id];
    min_bc = std::min(min_bc, c[kBroadcastJoinThresholdMb]);
    min_shj = std::min(min_shj, c[kShuffledHashJoinThresholdMb]);
  }
  if (std::isfinite(min_bc)) {
    agg[kBroadcastJoinThresholdMb] =
        std::max(min_bc, defaults[kBroadcastJoinThresholdMb]);
  }
  if (std::isfinite(min_shj)) {
    agg[kShuffledHashJoinThresholdMb] =
        std::max(min_shj, defaults[kShuffledHashJoinThresholdMb]);
  }

  *theta_p = DecodePlan(agg);
  *theta_s = DecodeStage(agg);
}

}  // namespace sparkopt
