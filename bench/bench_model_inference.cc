/// \file bench_model_inference.cc
/// \brief Micro-benchmarks of the components on the MOO critical path:
/// analytic subQ evaluation (the compile-time phi), MLP inference (the
/// learned phi — the paper's Xput column), feature extraction, and the
/// physical planner. The paper's 1-2 s solving budget rests on these
/// being 10^4-10^5 evaluations/second.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/rng.h"
#include "model/features.h"
#include "model/mlp.h"
#include "model/subq_evaluator.h"
#include "moo/objective_models.h"
#include "params/sampler.h"
#include "service/model_bootstrap.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

struct Fixture {
  std::vector<TableStats> catalog = TpchCatalog(100);
  ClusterSpec cluster;
  CostModelParams cost;
  Query q9 = *MakeTpchQuery(9, &catalog);
  SubQEvaluator eval{&q9, cluster, cost};
  AnalyticSubQModel model{&q9, cluster, cost};
  std::vector<double> conf = DefaultSparkConfig();
};

Fixture& Fx() {
  static Fixture fx;
  return fx;
}

void BM_AnalyticSubQEvaluate(benchmark::State& state) {
  auto& fx = Fx();
  int subq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.model.Evaluate(subq, fx.conf));
    subq = (subq + 1) % fx.model.num_subqs();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyticSubQEvaluate);

void BM_StageFeatureExtraction(benchmark::State& state) {
  auto& fx = Fx();
  const auto st = fx.eval.BuildStage(
      5, DecodeContext(fx.conf), DecodePlan(fx.conf), DecodeStage(fx.conf),
      CardinalitySource::kEstimated);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StageFeatures(fx.q9.plan, st, fx.conf, false,
                                           {}, {}, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageFeatureExtraction);

void BM_MlpInference(benchmark::State& state) {
  const int dim = FeatureLayout::Total();
  Mlp net({dim, 64, 64, 2}, 3);
  std::vector<double> x(dim, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Predict(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpInference);

void BM_MlpBatchInference(benchmark::State& state) {
  const int dim = FeatureLayout::Total();
  const size_t rows = static_cast<size_t>(state.range(0));
  Mlp net({dim, 64, 64, 2}, 3);
  std::vector<double> x(rows * dim);
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * (i % 97);
  std::vector<double> out(rows * 2);
  Mlp::BatchScratch scratch;
  for (auto _ : state) {
    net.PredictBatchInto(x.data(), rows, out.data(), &scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_MlpBatchInference)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

void BM_PhysicalPlanning(benchmark::State& state) {
  auto& fx = Fx();
  PhysicalPlanner planner(&fx.q9.plan, fx.q9.plan.DecomposeSubQueries());
  const ContextParams tc = DecodeContext(fx.conf);
  const PlanParams tp = DecodePlan(fx.conf);
  const StageParams ts = DecodeStage(fx.conf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(
        tc, {tp}, {ts}, CardinalitySource::kEstimated));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhysicalPlanning);

void BM_SimulateQuery(benchmark::State& state) {
  auto& fx = Fx();
  Simulator sim(fx.cluster, fx.cost);
  PhysicalPlanner planner(&fx.q9.plan, fx.q9.plan.DecomposeSubQueries());
  const ContextParams tc = DecodeContext(fx.conf);
  auto pp = *planner.Plan(tc, {DecodePlan(fx.conf)}, {DecodeStage(fx.conf)},
                          CardinalitySource::kTrue);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunAll(pp, tc, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateQuery);

// Directly measured per-row vs batched MLP throughput, emitted as
// RESULT-line JSON for the driver's before/after comparisons.
void EmitInferenceResults() {
  const int dim = FeatureLayout::Total();
  Mlp net({dim, 64, 64, 2}, 3);
  const size_t total = benchutil::FastMode() ? 20000 : 200000;

  std::vector<double> x(256 * dim);
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * (i % 97);
  std::vector<double> out(256 * 2);

  // Per-row baseline.
  {
    const std::vector<double> row(x.begin(), x.begin() + dim);
    benchutil::Timer timer;
    for (size_t i = 0; i < total; ++i) {
      benchmark::DoNotOptimize(net.Predict(row));
    }
    const double s = timer.Seconds();
    obs::JsonObject o;
    o.emplace_back("batch", obs::Json(1));
    o.emplace_back("rows_per_sec", obs::Json(total / s));
    o.emplace_back("ns_per_row", obs::Json(s / total * 1e9));
    benchutil::EmitJson("mlp_inference", obs::Json(std::move(o)));
  }
  Mlp::BatchScratch scratch;
  for (size_t batch : {size_t{64}, size_t{256}}) {
    const size_t iters = total / batch;
    benchutil::Timer timer;
    for (size_t i = 0; i < iters; ++i) {
      net.PredictBatchInto(x.data(), batch, out.data(), &scratch);
      benchmark::DoNotOptimize(out.data());
    }
    const double s = timer.Seconds();
    const double rows = static_cast<double>(iters * batch);
    obs::JsonObject o;
    o.emplace_back("batch", obs::Json(static_cast<uint64_t>(batch)));
    o.emplace_back("rows_per_sec", obs::Json(rows / s));
    o.emplace_back("ns_per_row", obs::Json(s / rows * 1e9));
    benchutil::EmitJson("mlp_inference", obs::Json(std::move(o)));
  }
}

// Per-row cost of both subQ models on TPC-H Q9 at SF10, 64 seeded LHS
// confs per subQ: analytic Evaluate row by row, and learned EvaluateBatch
// in 64-row batches on a {24, 12} FitSubQRegressor (the service bench's
// shape). Each pass batches on a fresh learned model, as each solve
// builds its own, so every row of these batches, whose slices all
// differ, builds its stage-table entry. The learned row is split into
// three parts, each timed directly over the same rows right after the
// batch: BuildStage (with the conf decode), StageFeatures, and the MLP
// over those features plus the objective derivation. Timing them back to
// back per batch keeps host drift out of the comparison.
//
// `pool_ns_per_row` times EvaluateBatch in the shape HMOOC calls it: per
// subQ, one batch over a 32-slice theta_p/theta_s pool under each of 8
// theta_c, on a fresh model per pass, so the first theta_c builds each
// stage and the other seven reuse it.
//
// `skewed_pool_ns_per_row` (analytic) times the same pool batches on
// Q9's two skewed subQs only (operator key skew above 0): their shuffle
// stages spread the input over one partition run per distinct task size,
// so a row adds many runs' task latencies.
//
// `small_call_ns_per_row` (learned) times the 1-row calls of HMOOC's
// steps 4-5, where a member theta_c meets the few pool entries that were
// Pareto-optimal for its representative: on a fresh model per pass, one
// untimed pool batch per subQ builds the stages, then every (theta_c,
// slice) row of the pool is its own EvaluateBatch call.
void EmitModelRowResults() {
  const std::vector<TableStats> catalog = TpchCatalog(10);
  const Query q9 = *MakeTpchQuery(9, &catalog);
  const ClusterSpec cluster;
  const CostModelParams cost;
  const PriceBook prices;
  BootstrapOptions bo;
  bo.samples_per_query = 16;
  bo.hidden = {24, 12};
  bo.epochs = 30;
  const auto reg = FitSubQRegressor({&q9}, cluster, cost, prices, bo);
  if (!reg.ok()) {
    std::fprintf(stderr, "model_row: %s\n", reg.status().ToString().c_str());
    return;
  }
  const AnalyticSubQModel analytic(&q9, cluster, cost);
  const SubQEvaluator eval(&q9, cluster, cost);
  const int subqs = eval.num_subqs();
  Rng rng(0x9011);
  std::vector<std::vector<std::vector<double>>> confs(subqs);
  for (auto& c : confs) c = SampleLatinHypercube(SparkParamSpace(), 64, &rng);
  const auto theta_c = SampleLatinHypercube(SparkParamSpace(), 8, &rng);
  const auto slices = SampleLatinHypercube(SparkParamSpace(), 32, &rng);
  std::vector<std::vector<std::vector<double>>> pool(theta_c.size());
  for (size_t j = 0; j < theta_c.size(); ++j) {
    for (const auto& slice : slices) {
      std::vector<double> conf = slice;
      std::copy_n(theta_c[j].begin(), kAdvisoryPartitionSizeMb, conf.begin());
      pool[j].push_back(std::move(conf));
    }
  }
  const int passes = benchutil::FastMode() ? 20 : 200;
  const double rows = static_cast<double>(passes) * subqs * 64;
  const double pool_rows =
      static_cast<double>(passes) * subqs * theta_c.size() * slices.size();

  benchutil::Timer analytic_timer;
  for (int p = 0; p < passes; ++p) {
    for (int s = 0; s < subqs; ++s) {
      for (const auto& conf : confs[s]) {
        benchmark::DoNotOptimize(analytic.Evaluate(s, conf));
      }
    }
  }
  const double analytic_s = analytic_timer.Seconds();

  double learned_s = 0.0, build_s = 0.0, features_s = 0.0, mlp_s = 0.0;
  std::vector<ObjectiveVector> out;
  std::vector<QueryStage> stages(64);
  const size_t d = reg->input_dim();
  const size_t k = reg->output_dim();
  std::vector<double> features(64 * d);
  std::vector<double> preds(64 * k);
  std::vector<double> derived(64);
  Mlp::BatchScratch scratch;
  for (int p = 0; p < passes; ++p) {
    const LearnedSubQModel learned(&q9, cluster, cost, &*reg);
    for (int s = 0; s < subqs; ++s) {
      const benchutil::Timer batch_timer;
      learned.EvaluateBatch(s, confs[s], &out);
      benchmark::DoNotOptimize(out.data());
      learned_s += batch_timer.Seconds();

      const benchutil::Timer build_timer;
      for (size_t i = 0; i < confs[s].size(); ++i) {
        const auto& conf = confs[s][i];
        stages[i] = eval.BuildStage(s, DecodeContext(conf), DecodePlan(conf),
                                    DecodeStage(conf),
                                    CardinalitySource::kEstimated);
        benchmark::DoNotOptimize(stages[i]);
      }
      build_s += build_timer.Seconds();

      const benchutil::Timer features_timer;
      for (size_t i = 0; i < confs[s].size(); ++i) {
        const auto row = StageFeatures(q9.plan, stages[i], confs[s][i], false,
                                       {}, {}, false);
        std::copy(row.begin(), row.end(), features.begin() + i * d);
      }
      features_s += features_timer.Seconds();

      // The MLP, then LearnedSubQModel's objective derivation: latency and
      // IO floored, cost from the price book.
      const benchutil::Timer mlp_timer;
      reg->PredictBatchInto(features.data(), confs[s].size(), preds.data(),
                            &scratch);
      for (size_t i = 0; i < confs[s].size(); ++i) {
        const ContextParams tc = DecodeContext(confs[s][i]);
        const double latency = std::max(preds[i * k], 1e-4);
        const double io_mb = std::max(preds[i * k + 1], 0.0);
        derived[i] = CloudCost(prices, tc.TotalCores(),
                               tc.executor_memory_gb * tc.executor_instances,
                               latency, io_mb / 1024.0);
      }
      benchmark::DoNotOptimize(derived.data());
      mlp_s += mlp_timer.Seconds();
    }
  }

  // HMOOC-shaped pool batches on the subQs `on`, on a fresh model of each
  // kind per pass.
  std::vector<int> all(subqs), skewed;
  QueryStage stage;
  for (int s = 0; s < subqs; ++s) {
    all[s] = s;
    double skew = 0.0;
    eval.PlanStage(s, DecodePlan(DefaultSparkConfig()),
                   CardinalitySource::kEstimated,
                   /*completed_subqs=*/nullptr, &skew, &stage);
    if (skew > 0.0) skewed.push_back(s);
  }
  const auto time_pool = [&](auto make_model, const std::vector<int>& on) {
    double seconds = 0.0;
    for (int p = 0; p < passes; ++p) {
      const auto model = make_model();
      const benchutil::Timer timer;
      for (const int s : on) {
        for (const auto& batch : pool) {
          model->EvaluateBatch(s, batch, &out);
          benchmark::DoNotOptimize(out.data());
        }
      }
      seconds += timer.Seconds();
    }
    return seconds * 1e9 /
           (static_cast<double>(passes) * on.size() * theta_c.size() *
            slices.size());
  };
  const auto make_analytic = [&] {
    return std::make_unique<AnalyticSubQModel>(&q9, cluster, cost);
  };
  const double analytic_pool_ns = time_pool(make_analytic, all);
  const double skewed_pool_ns = time_pool(make_analytic, skewed);
  const double learned_pool_ns = time_pool(
      [&] {
        return std::make_unique<LearnedSubQModel>(&q9, cluster, cost, &*reg);
      },
      all);
  double small_call_s = 0.0;
  std::vector<std::vector<double>> one(1);
  for (int p = 0; p < passes; ++p) {
    const LearnedSubQModel learned(&q9, cluster, cost, &*reg);
    for (int s = 0; s < subqs; ++s) learned.EvaluateBatch(s, pool[0], &out);
    const benchutil::Timer timer;
    for (int s = 0; s < subqs; ++s) {
      for (const auto& batch : pool) {
        for (const auto& conf : batch) {
          one[0].assign(conf.begin(), conf.end());
          learned.EvaluateBatch(s, one, &out);
          benchmark::DoNotOptimize(out.data());
        }
      }
    }
    small_call_s += timer.Seconds();
  }

  const double ns = 1e9 / rows;
  {
    obs::JsonObject o;
    o.emplace_back("model", obs::Json("analytic"));
    o.emplace_back("ns_per_row", obs::Json(analytic_s * ns));
    o.emplace_back("pool_ns_per_row", obs::Json(analytic_pool_ns));
    o.emplace_back("skewed_pool_ns_per_row", obs::Json(skewed_pool_ns));
    o.emplace_back("rows", obs::Json(rows));
    benchutil::EmitJson("model_row", obs::Json(std::move(o)));
  }
  obs::JsonObject o;
  o.emplace_back("model", obs::Json("learned"));
  o.emplace_back("ns_per_row", obs::Json(learned_s * ns));
  o.emplace_back("pool_ns_per_row", obs::Json(learned_pool_ns));
  o.emplace_back("small_call_ns_per_row",
                 obs::Json(small_call_s * 1e9 / pool_rows));
  o.emplace_back("build_stage_ns", obs::Json(build_s * ns));
  o.emplace_back("stage_features_ns", obs::Json(features_s * ns));
  o.emplace_back("mlp_derive_ns", obs::Json(mlp_s * ns));
  o.emplace_back("rows", obs::Json(rows));
  benchutil::EmitJson("model_row", obs::Json(std::move(o)));
}

}  // namespace
}  // namespace sparkopt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sparkopt::EmitInferenceResults();
  sparkopt::EmitModelRowResults();
  return 0;
}
