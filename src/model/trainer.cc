#include "model/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/rng.h"
#include "params/sampler.h"

namespace sparkopt {

DatasetSplit SplitDataset(const ModelDataset& ds, uint64_t seed) {
  Rng rng(seed);
  auto order = rng.Permutation(static_cast<int>(ds.size()));
  DatasetSplit split;
  const size_t n = ds.size();
  const size_t n_train = n * 8 / 10;
  const size_t n_val = n / 10;
  for (size_t i = 0; i < n; ++i) {
    const int idx = order[i];
    ModelDataset* target = i < n_train
                               ? &split.train
                               : (i < n_train + n_val ? &split.validation
                                                      : &split.test);
    target->x.push_back(ds.x[idx]);
    target->y.push_back(ds.y[idx]);
  }
  return split;
}

Status TraceCollector::Collect(
    const std::function<Result<Query>(int, uint64_t)>& make_query,
    int num_templates, const TraceOptions& opts, ModelDataset* subq_ds,
    ModelDataset* qs_ds, ModelDataset* lqp_ds) {
  Rng rng(opts.seed);
  Simulator sim(cluster_, cost_, prices_);
  const auto& space = SparkParamSpace();
  const auto configs =
      SampleLatinHypercube(space, static_cast<size_t>(opts.runs), &rng);
  constexpr double kMb = 1024.0 * 1024.0;

  for (int run = 0; run < opts.runs; ++run) {
    const int qid = 1 + static_cast<int>(rng.NextBounded(num_templates));
    const uint64_t variant =
        opts.use_variants ? HashCombine(opts.seed, run * 2654435761ULL) : 0;
    auto q_or = make_query(qid, variant);
    if (!q_or.ok()) return q_or.status();
    Query& q = *q_or;

    const auto& conf = configs[run];
    const ContextParams tc = DecodeContext(conf);
    const PlanParams tp = DecodePlan(conf);
    const StageParams ts = DecodeStage(conf);

    AqeDriver driver(&q.plan, &sim);
    auto run_or = driver.Run(tc, {tp}, {ts}, nullptr,
                             HashCombine(q.seed, run));
    if (!run_or.ok()) return run_or.status();
    const AqeResult& res = *run_or;

    SubQEvaluator eval(&q, cluster_, cost_, prices_);

    // ---- subQ (compile-time) and QS (runtime) samples per stage ----
    for (const auto& se : res.exec.stages) {
      if (se.subq_id < 0 || se.subq_id >= eval.num_subqs()) continue;
      // Skip broadcast-merged stages: their measured latency covers
      // several subQs and would mislabel the single-subQ features.
      if (se.merged_subqs > 1) continue;
      const std::vector<double> targets = {se.analytical_latency,
                                           se.io_bytes / kMb};
      // Compile-time subQ: estimated cards, uniform partitions (beta=0),
      // no contention (gamma=0).
      const QueryStage est_stage = eval.BuildStage(
          se.subq_id, tc, tp, ts, CardinalitySource::kEstimated);
      subq_ds->Append(
          StageFeatures(q.plan, est_stage, conf, /*use_true_cards=*/false,
                        {}, {}, /*drop_theta_p=*/false),
          targets);
      // Runtime QS: true cards, observed beta and gamma, theta_p dropped.
      const QueryStage true_stage =
          eval.BuildStage(se.subq_id, tc, tp, ts, CardinalitySource::kTrue);
      qs_ds->Append(
          StageFeatures(q.plan, true_stage, conf, /*use_true_cards=*/true,
                        PartitionDistributionStats(true_stage.partitions),
                        ContentionStats(se), /*drop_theta_p=*/true),
          targets);
    }

    // ---- collapsed-LQP samples: one per wave boundary ----
    int max_wave = 0;
    for (const auto& se : res.exec.stages) max_wave = std::max(max_wave, se.wave);
    for (int w = 0; w <= max_wave; ++w) {
      double elapsed = 0.0;
      double remaining_ana = 0.0, remaining_io = 0.0;
      std::vector<QueryStage> remaining;
      for (const auto& se : res.exec.stages) {
        if (se.wave < w) {
          elapsed = std::max(elapsed, se.end);
        } else {
          remaining_ana += se.analytical_latency;
          remaining_io += se.io_bytes;
          if (se.subq_id >= 0 && se.subq_id < eval.num_subqs()) {
            remaining.push_back(eval.BuildStage(se.subq_id, tc, tp, ts,
                                                CardinalitySource::kTrue));
          }
        }
      }
      (void)remaining_ana;
      if (remaining.empty()) continue;
      const double remaining_latency =
          std::max(res.exec.latency - elapsed, 0.0);
      lqp_ds->Append(
          CollapsedPlanFeatures(q.plan, remaining, conf, {}),
          {remaining_latency, remaining_io / kMb});
    }
  }
  return Status::OK();
}

Status ModelSuite::Train(const ModelDataset& subq, const ModelDataset& qs,
                         const ModelDataset& lqp, uint64_t seed,
                         const Mlp::TrainOptions& opts) {
  if (subq.empty() || qs.empty() || lqp.empty()) {
    return Status::InvalidArgument("empty training dataset");
  }
  const int stage_dim = static_cast<int>(subq.x[0].size());
  const int lqp_dim = static_cast<int>(lqp.x[0].size());
  subq_ = Regressor(stage_dim, 2, {96, 96}, HashCombine(seed, 1));
  qs_ = Regressor(stage_dim, 2, {96, 96}, HashCombine(seed, 2));
  lqp_ = Regressor(lqp_dim, 2, {96, 96}, HashCombine(seed, 3));
  Mlp::TrainOptions o = opts;
  o.seed = HashCombine(seed, 77);
  SPARKOPT_RETURN_NOT_OK(subq_.Fit(subq.x, subq.y, o));
  SPARKOPT_RETURN_NOT_OK(qs_.Fit(qs.x, qs.y, o));
  SPARKOPT_RETURN_NOT_OK(lqp_.Fit(lqp.x, lqp.y, o));
  return Status::OK();
}

ModelPerformance ModelSuite::Evaluate(const Regressor& model,
                                      const ModelDataset& test) const {
  ModelPerformance perf;
  if (test.empty()) return perf;
  std::vector<double> lat_true, lat_pred, io_true, io_pred;
  const auto t0 = std::chrono::steady_clock::now();
  const Matrix preds = model.PredictBatch(test.x);
  const auto t1 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < test.size(); ++i) {
    lat_true.push_back(test.y[i][0]);
    lat_pred.push_back(preds[i][0]);
    io_true.push_back(test.y[i][1]);
    io_pred.push_back(preds[i][1]);
  }
  perf.latency = EvaluateAccuracy(lat_true, lat_pred);
  perf.io = EvaluateAccuracy(io_true, io_pred);
  const double secs =
      std::chrono::duration<double>(t1 - t0).count();
  perf.throughput_per_sec = secs > 0 ? test.size() / secs : 0.0;
  return perf;
}

}  // namespace sparkopt
