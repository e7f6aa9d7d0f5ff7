/// \file bench_hmooc_solver.cc
/// \brief Micro-benchmarks of the full HMOOC compile-time solve on
/// representative plan shapes (the "solving time" axis of Figure 10),
/// plus ablations over the algorithm's two budgets: theta_c candidates
/// and the theta_p sample pool (Algorithm 1's knobs).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "moo/hmooc.h"
#include "moo/objective_models.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

void BM_HmoocSolveTpchQ3(benchmark::State& state) {
  static auto catalog = TpchCatalog(100);
  static auto q = *MakeTpchQuery(3, &catalog);
  ClusterSpec cluster;
  CostModelParams cost;
  AnalyticSubQModel model(&q, cluster, cost);
  HmoocOptions ho;
  ho.seed = 3;
  HmoocSolver solver(&model, ho);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve());
  }
}
BENCHMARK(BM_HmoocSolveTpchQ3)->Unit(benchmark::kMillisecond);

void BM_HmoocSolveTpchQ9(benchmark::State& state) {
  static auto catalog = TpchCatalog(100);
  static auto q = *MakeTpchQuery(9, &catalog);
  ClusterSpec cluster;
  CostModelParams cost;
  AnalyticSubQModel model(&q, cluster, cost);
  HmoocOptions ho;
  ho.seed = 3;
  HmoocSolver solver(&model, ho);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve());
  }
}
BENCHMARK(BM_HmoocSolveTpchQ9)->Unit(benchmark::kMillisecond);

void BM_HmoocSolveWideTpcds(benchmark::State& state) {
  // The widest TPC-DS shapes (multi-channel unions) stress the per-subQ
  // loop; find one with > 25 subQs.
  static auto catalog = TpcdsCatalog(100);
  static Query q = [] {
    for (int qid = 1; qid <= 102; ++qid) {
      auto cand = *MakeTpcdsQuery(qid, &catalog);
      if (cand.NumSubQueries() > 25) return cand;
    }
    return *MakeTpcdsQuery(1, &catalog);
  }();
  ClusterSpec cluster;
  CostModelParams cost;
  AnalyticSubQModel model(&q, cluster, cost);
  HmoocOptions ho;
  ho.seed = 3;
  HmoocSolver solver(&model, ho);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve());
  }
  state.SetLabel(std::to_string(q.NumSubQueries()) + " subQs");
}
BENCHMARK(BM_HmoocSolveWideTpcds)->Unit(benchmark::kMillisecond);

void BM_HmoocSolveTpchQ9Threads(benchmark::State& state) {
  static auto catalog = TpchCatalog(100);
  static auto q = *MakeTpchQuery(9, &catalog);
  ClusterSpec cluster;
  CostModelParams cost;
  AnalyticSubQModel model(&q, cluster, cost);
  HmoocOptions ho;
  ho.seed = 3;
  ho.num_threads = static_cast<int>(state.range(0));
  HmoocSolver solver(&model, ho);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve());
  }
}
BENCHMARK(BM_HmoocSolveTpchQ9Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_HmoocBudgetSweep(benchmark::State& state) {
  static auto catalog = TpchCatalog(100);
  static auto q = *MakeTpchQuery(9, &catalog);
  ClusterSpec cluster;
  CostModelParams cost;
  AnalyticSubQModel model(&q, cluster, cost);
  HmoocOptions ho;
  ho.seed = 3;
  ho.theta_c_samples = state.range(0);
  ho.clusters = std::max<int>(2, state.range(0) / 6);
  ho.theta_p_samples = state.range(1);
  HmoocSolver solver(&model, ho);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve());
  }
}
BENCHMARK(BM_HmoocBudgetSweep)
    ->Args({16, 32})
    ->Args({32, 64})
    ->Args({64, 96})
    ->Args({128, 192})
    ->Unit(benchmark::kMillisecond);

// Directly measured solve times emitted as RESULT-line JSON for the
// driver's before/after comparisons (best of `reps` wall-clock runs).
void EmitSolveResults() {
  auto catalog = TpchCatalog(100);
  auto q = *MakeTpchQuery(9, &catalog);
  ClusterSpec cluster;
  CostModelParams cost;
  // Best-of-N even in fast mode: single timings on shared runners swing
  // ~10% run to run, which would swallow the very regressions the
  // snapshot gate exists to catch (min-of-3 is far tighter).
  const int reps = 3;
  const int hw = ThreadPool(0).parallelism();
  // On single-core runners hw == 1 and the multi-thread row would
  // duplicate the threads=1 row byte-for-byte, which then skews the
  // snapshot aggregation (tools/bench_snapshot.sh). Skip it there.
  std::vector<int> thread_counts{1};
  if (hw != 1) thread_counts.push_back(hw);
  for (const int threads : thread_counts) {
    AnalyticSubQModel model(&q, cluster, cost);
    HmoocOptions ho;
    ho.seed = 3;
    ho.num_threads = threads;
    HmoocSolver solver(&model, ho);
    double best_s = 1e300;
    size_t evals = 0;
    for (int rep = 0; rep < reps; ++rep) {
      benchutil::Timer timer;
      const auto r = solver.Solve();
      best_s = std::min(best_s, timer.Seconds());
      evals = r.evaluations;
    }
    obs::JsonObject o;
    o.emplace_back("query", obs::Json("tpch_q9"));
    o.emplace_back("threads", obs::Json(threads));
    o.emplace_back("solve_ms", obs::Json(best_s * 1e3));
    o.emplace_back("evaluations", obs::Json(static_cast<uint64_t>(evals)));
    benchutil::EmitJson("hmooc_solve", obs::Json(std::move(o)));
  }
}

// 3-objective solve sweep: each query solved end-to-end with k = 2 and
// k = 3 under HMOOC1 (the exact D&C aggregation, where the k = 3
// kd-staircase merge actually runs), emitting both times and their
// ratio. The PR 9 acceptance target is ratio <= 1.5 on the TPC-H rows.
void EmitSolve3Results() {
  auto tpch_catalog = TpchCatalog(100);
  auto tpcds_catalog = TpcdsCatalog(100);
  struct Row {
    std::string name;
    Query q;
  };
  std::vector<Row> rows;
  rows.push_back({"tpch_q3", *MakeTpchQuery(3, &tpch_catalog)});
  rows.push_back({"tpch_q9", *MakeTpchQuery(9, &tpch_catalog)});
  for (int qid = 1; qid <= 102; ++qid) {
    auto q = MakeTpcdsQuery(qid, &tpcds_catalog);
    if (q.ok()) {
      rows.push_back({"tpcds_q" + std::to_string(qid), std::move(*q)});
      break;
    }
  }
  ClusterSpec cluster;
  CostModelParams cost;
  const int reps = 3;  // best-of-3: see EmitSolveResults
  for (Row& row : rows) {
    double solve_ms[2] = {0.0, 0.0};
    size_t front_size[2] = {0, 0};
    for (int k : {2, 3}) {
      AnalyticSubQModel model(&row.q, cluster, cost);
      model.set_num_objectives(k);
      HmoocOptions ho;
      ho.seed = 3;
      ho.aggregation = DagAggregation::kDivideAndConquer;
      HmoocSolver solver(&model, ho);
      double best_s = 1e300;
      for (int rep = 0; rep < reps; ++rep) {
        benchutil::Timer timer;
        const auto r = solver.Solve();
        best_s = std::min(best_s, timer.Seconds());
        front_size[k - 2] = r.pareto.size();
      }
      solve_ms[k - 2] = best_s * 1e3;
    }
    obs::JsonObject o;
    o.emplace_back("query", obs::Json(row.name));
    o.emplace_back("solve2_ms", obs::Json(solve_ms[0]));
    o.emplace_back("solve3_ms", obs::Json(solve_ms[1]));
    o.emplace_back("ratio", obs::Json(solve_ms[1] / solve_ms[0]));
    o.emplace_back("front2_size",
                   obs::Json(static_cast<uint64_t>(front_size[0])));
    o.emplace_back("front3_size",
                   obs::Json(static_cast<uint64_t>(front_size[1])));
    benchutil::EmitJson("hmooc_solve3", obs::Json(std::move(o)));
  }
}

}  // namespace
}  // namespace sparkopt

int main(int argc, char** argv) {
  // Consumes --trace-out/--profile-out/--metrics-out (and their env
  // twins) before google-benchmark sees — and would reject — them.
  sparkopt::benchutil::TraceExport trace(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sparkopt::EmitSolveResults();
  sparkopt::EmitSolve3Results();
  return 0;
}
