#include "model/subq_evaluator.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"

namespace sparkopt {

namespace {
constexpr double kMb = 1024.0 * 1024.0;

CostModelParams NoiseFree(CostModelParams p) {
  p.noise_sigma = 0.0;
  return p;
}

double NLogN(double n) { return n * std::log2(std::max(n, 2.0)); }
}  // namespace

SubQEvaluator::SubQEvaluator(const Query* query, const ClusterSpec& cluster,
                             const CostModelParams& cost_params,
                             const PriceBook& prices, size_t)
    : query_(query),
      subqs_(query->plan.DecomposeSubQueries()),
      cost_model_(cluster, NoiseFree(cost_params)),
      prices_(prices) {
  subq_of_op_.assign(query_->plan.num_ops(), -1);
  for (const auto& sq : subqs_) {
    for (int op : sq.op_ids) subq_of_op_[op] = sq.id;
  }
}

QueryStage SubQEvaluator::BuildStage(
    int subq_id, const ContextParams& theta_c, const PlanParams& tp,
    const StageParams& ts, CardinalitySource source,
    const std::vector<bool>* completed_subqs) const {
  double skew = 0.0;
  QueryStage st;
  PlanStage(subq_id, tp, source, completed_subqs, &skew, &st);
  PartitionStage(theta_c, tp, ts, skew, &st);
  return st;
}

void SubQEvaluator::PlanStage(int subq_id, const PlanParams& tp,
                              CardinalitySource source,
                              const std::vector<bool>* completed_subqs,
                              double* skew_out, QueryStage* out) const {
  const auto& plan = query_->plan;
  const auto& sq = subqs_[subq_id];
  const BelievedCardinality card(plan, subq_of_op_, source, completed_subqs);

  QueryStage& st = *out;
  static_cast<StageScalars&>(st) = StageScalars();
  st.id = subq_id;
  st.subq_id = subq_id;
  st.op_ids.assign(sq.op_ids.begin(), sq.op_ids.end());
  st.deps.clear();
  st.broadcast_deps.clear();
  st.partitions.clear();
  double skew = 0.0;

  for (int id : sq.op_ids) {
    const auto& op = plan.op(id);
    if (op.type == OpType::kScan) {
      st.is_scan_stage = true;
      st.input_rows += card.rows(id) / std::max(op.selectivity, 1e-9);
      st.input_bytes += card.bytes(id) / std::max(op.selectivity, 1e-9);
    }
    skew = std::max(skew, op.shuffle_skew);

    // Inputs from other subQs. For joins, decide the algorithm first.
    if (op.type == OpType::kJoin && op.children.size() >= 2) {
      const JoinDecision decision = ChooseJoin(op, tp, card);
      const int build = decision.build_op;
      const JoinAlgo algo = decision.algo;
      st.has_join = true;
      st.join_algo = algo;

      double build_rows = 0.0, probe_rows = 0.0;
      for (int c : op.children) {
        (c == build ? build_rows : probe_rows) += card.rows(c);
        if (subq_of_op_[c] == subq_id) continue;
        if (algo == JoinAlgo::kBroadcastHashJoin && c == build) {
          st.broadcast_bytes += card.bytes(c);
        } else {
          st.shuffle_read_bytes += card.bytes(c);
          st.input_rows += card.rows(c);
          st.input_bytes += card.bytes(c);
        }
      }
      switch (algo) {
        case JoinAlgo::kSortMergeJoin: {
          const double sw = 0.35 *
                            (NLogN(build_rows) + NLogN(probe_rows)) /
                            std::log2(1e6);
          st.sort_work += sw;
          st.cpu_work += 0.6 * (build_rows + probe_rows) + sw;
          break;
        }
        case JoinAlgo::kShuffledHashJoin:
          st.cpu_work += 1.0 * build_rows + 0.35 * probe_rows;
          break;
        case JoinAlgo::kBroadcastHashJoin:
          st.cpu_work += 0.4 * probe_rows;
          break;
      }
      st.cpu_work += 0.15 * card.rows(id);
      continue;
    }

    // Non-join operators: shuffle-read any out-of-subQ children.
    for (int c : op.children) {
      if (subq_of_op_[c] == subq_id) continue;
      st.shuffle_read_bytes += card.bytes(c);
      st.input_rows += card.rows(c);
      st.input_bytes += card.bytes(c);
    }
    const double out_rows = card.rows(id);
    switch (op.type) {
      case OpType::kSort: {
        const double sw = 0.5 * NLogN(out_rows) / std::log2(1e6);
        st.sort_work += sw;
        st.cpu_work += sw;
        break;
      }
      case OpType::kScan:
        st.cpu_work += 1.0 * card.rows(id) / std::max(op.selectivity, 1e-9);
        break;
      case OpType::kFilter:
        st.cpu_work += 0.25 * out_rows / std::max(op.selectivity, 1e-9);
        break;
      case OpType::kAggregate:
        st.cpu_work += 0.9 * (st.input_rows > 0 ? st.input_rows : out_rows);
        break;
      default: {
        double in_rows = 0.0;
        for (int c : op.children) in_rows += card.rows(c);
        st.cpu_work += 0.15 * std::max(in_rows, out_rows);
        break;
      }
    }
  }

  const int root_op = sq.root_op;
  st.output_rows = card.rows(root_op);
  st.output_bytes = card.bytes(root_op);
  st.exchanges_output = root_op != plan.root();
  *skew_out = skew;
}

SubQObjectives SubQEvaluator::Evaluate(
    int subq_id, const ContextParams& theta_c, const PlanParams& theta_p,
    const StageParams& theta_s, CardinalitySource source,
    const std::vector<bool>* completed_subqs) const {
  obs::Count("model.inferences");
  obs::ScopedHistogramTimer timer(obs::HistogramFor("model.inference_us"));
  const QueryStage st = BuildStage(subq_id, theta_c, theta_p, theta_s,
                                   source, completed_subqs);
  return CostStage(st, st.partitions, theta_c);
}

SubQObjectives SubQEvaluator::CostStage(const StageScalars& st,
                                        std::span<const PartitionRun> runs,
                                        const ContextParams& theta_c) const {
  // Equal partitions cost the same, so each run is costed once. All
  // partitions equal: n x L. Otherwise each task's latency is added in
  // task order, under one task context: the cost model here is
  // noise-free, so a task's latency does not depend on its index.
  double task_sum = 0.0;
  if (runs.size() == 1) {
    task_sum = st.num_partitions *
               cost_model_.TaskLatency(st, runs[0].bytes, 0, theta_c,
                                       /*seed=*/0);
  } else {
    const TaskCostModel::TaskContext ctx =
        cost_model_.StageContext(st, theta_c);
    for (const PartitionRun& run : runs) {
      const double latency = cost_model_.TaskLatency(ctx, run.bytes);
      for (int i = 0; i < run.count; ++i) task_sum += latency;
    }
  }
  const int cores = std::min(theta_c.TotalCores(),
                             cost_model_.cluster().TotalCores());
  SubQObjectives obj;
  obj.analytical_latency =
      task_sum / std::max(cores, 1) +
      cost_model_.StageSetupLatency(st, theta_c);
  obj.io_bytes = cost_model_.StageIoBytes(st, theta_c);
  const double mem_gb =
      theta_c.executor_memory_gb * theta_c.executor_instances;
  obj.cost = CloudCost(prices_, cores, mem_gb, obj.analytical_latency,
                       obj.io_bytes / (1024.0 * kMb));
  return obj;
}

}  // namespace sparkopt
