/// \file bench_tuning_service.cc
/// \brief Tuning-as-a-service throughput and tail latency (DESIGN.md
/// section 15): a seeded Poisson open-loop load generator drives a
/// TPC-H/TPC-DS query mix through the TuningService in two configs —
/// "naive" (shared cross-query eval cache off) and "batched+shared"
/// (cache on) — on both the analytic and the learned objective-model
/// axis. Sessions always predict directly; the "batched+shared" key now
/// just means "shared cache on". It keeps its name because the tier-1
/// gate baseline's rows are keyed on it; renaming it waits for a new
/// gate baseline.
///
/// Phase 1 (capacity): an overload-rate Poisson schedule with an
/// unbounded-enough queue measures each config's sustained requests/sec.
/// Phase 2 (tail latency): both configs are re-run at one common offered
/// load (a fraction of the *naive* capacity, so both are stable) and
/// p50/p99 solve and sojourn latency are read from the service's own
/// histograms. Because the service is deterministic by construction, the
/// two configs must produce bitwise-identical Pareto fronts — the
/// "fronts_identical" field is the proof that the speedup is measured at
/// exactly equal solution quality (equal hypervolume by identity).

#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/load_gen.h"
#include "service/model_bootstrap.h"
#include "service/tuning_service.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

using namespace sparkopt;
using namespace sparkopt::benchutil;

namespace {

std::shared_ptr<ServiceArtifacts> MakeArtifacts(bool learned) {
  auto a = std::make_shared<ServiceArtifacts>();
  a->name = learned ? "learned" : "analytic";
  // Service-sized solver budget: parallelism comes from concurrent
  // sessions, so each solve runs single-threaded.
  a->hmooc.theta_c_samples = 24;
  a->hmooc.clusters = 6;
  a->hmooc.theta_p_samples = 32;
  a->hmooc.enriched_samples = 8;
  a->hmooc.num_threads = 1;

  const auto* tpch = a->AddCatalog(TpchCatalog(10));
  const auto* tpcds = a->AddCatalog(TpcdsCatalog(10));
  std::vector<const Query*> queries;
  for (int qid : {3, 5, 9}) {
    auto q = MakeTpchQuery(qid, tpch);
    if (q.ok() && a->AddQuery(*q).ok()) queries.push_back(a->FindQuery(q->name));
  }
  for (int qid : {3, 18, 27}) {
    auto q = MakeTpcdsQuery(qid, tpcds);
    if (q.ok() && a->AddQuery(*q).ok()) queries.push_back(a->FindQuery(q->name));
  }
  if (learned) {
    BootstrapOptions bo;
    bo.samples_per_query = FastMode() ? 8 : 16;
    bo.hidden = {24, 12};
    bo.epochs = FastMode() ? 12 : 30;
    auto reg = FitSubQRegressor(queries, a->cluster, a->cost_params,
                                a->prices, bo);
    if (reg.ok()) {
      a->subq_model = *reg;
    } else {
      std::fprintf(stderr, "bootstrap failed: %s\n",
                   reg.status().ToString().c_str());
    }
  }
  return a;
}

struct RunStats {
  double sustained_rps = 0.0;
  double achieved_rps = 0.0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  double p50_solve_ms = 0.0, p99_solve_ms = 0.0;
  double p50_sojourn_ms = 0.0, p99_sojourn_ms = 0.0;
  /// query name -> front of the first completed request for it.
  std::map<std::string, std::vector<ObjectiveVector>> fronts;
};

/// Submits `n` requests round-robin over the artifact's query mix at the
/// pre-drawn Poisson arrival times, waits for every future, and reports
/// sustained throughput plus the service-histogram latency percentiles.
RunStats RunOpenLoop(ArtifactRegistry* registry, bool shared_cache,
                     int sessions, double offered_rps, size_t n,
                     size_t queue_capacity, uint64_t seed) {
  TuningServiceOptions opts;
  opts.sessions = sessions;
  opts.queue_capacity = queue_capacity;
  opts.shared_cache_enabled = shared_cache;
  TuningService service(registry, opts);

  std::vector<std::string> mix;
  for (const auto& [name, q] : registry->Current()->queries()) {
    (void)q;
    mix.push_back(name);
  }

  const auto schedule = PoissonArrivalSchedule(offered_rps, n, seed);
  std::vector<std::future<Result<TuningServiceResult>>> futures;
  futures.reserve(n);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(schedule[i])));
    futures.push_back(service.Submit({mix[i % mix.size()]}));
  }

  RunStats out;
  for (size_t i = 0; i < n; ++i) {
    auto res = futures[i].get();
    if (!res.ok()) {
      ++out.rejected;
      continue;
    }
    ++out.completed;
    auto& front = out.fronts[res->query_name];
    if (front.empty()) front = FrontOf(res->moo);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.sustained_rps = out.completed / elapsed;
  out.achieved_rps = out.sustained_rps;
  out.p50_solve_ms = service.solve_latency_us().Percentile(0.50) / 1e3;
  out.p99_solve_ms = service.solve_latency_us().Percentile(0.99) / 1e3;
  out.p50_sojourn_ms = service.sojourn_us().Percentile(0.50) / 1e3;
  out.p99_sojourn_ms = service.sojourn_us().Percentile(0.99) / 1e3;
  return out;
}

/// Exact per-query front identity between two runs: the determinism
/// contract says the cache must not move a single bit.
bool FrontsIdentical(const RunStats& a, const RunStats& b) {
  if (a.fronts.size() != b.fronts.size()) return false;
  for (const auto& [name, front] : a.fronts) {
    auto it = b.fronts.find(name);
    if (it == b.fronts.end() || it->second != front) return false;
  }
  return true;
}

/// Mean normalized hypervolume over the query mix, bounds shared between
/// both configs so the numbers are directly comparable.
double AvgHypervolume(const RunStats& s,
                      const std::map<std::string, ObjectiveVector>& lo,
                      const std::map<std::string, ObjectiveVector>& hi) {
  if (s.fronts.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [name, front] : s.fronts) {
    sum += NormalizedHypervolume(front, lo.at(name), hi.at(name));
  }
  return sum / static_cast<double>(s.fronts.size());
}

void RunAxis(const char* model, bool learned) {
  auto artifacts = MakeArtifacts(learned);
  ArtifactRegistry registry;
  registry.Publish(artifacts);

  const int sessions = 4;
  const size_t n_capacity = FastMode() ? 72 : 240;
  const size_t n_latency = FastMode() ? 48 : 160;
  // Overload rate: far beyond any plausible capacity, so phase 1
  // measures the service, not the generator.
  const double overload_rps = 50000.0;

  std::printf("==== model=%s: capacity under overload ====\n", model);
  auto naive = RunOpenLoop(&registry, /*shared_cache=*/false, sessions,
                           overload_rps, n_capacity,
                           /*queue_capacity=*/n_capacity, /*seed=*/101);
  auto full = RunOpenLoop(&registry, /*shared_cache=*/true, sessions,
                          overload_rps, n_capacity,
                          /*queue_capacity=*/n_capacity, /*seed=*/101);

  Table cap({"config", "sustained rps", "completed", "p99 solve (ms)"});
  cap.AddRow({"naive", Fmt("%.1f", naive.sustained_rps),
              Fmt("%.0f", static_cast<double>(naive.completed)),
              Fmt("%.2f", naive.p99_solve_ms)});
  cap.AddRow({"batched+shared", Fmt("%.1f", full.sustained_rps),
              Fmt("%.0f", static_cast<double>(full.completed)),
              Fmt("%.2f", full.p99_solve_ms)});
  cap.Print();

  // Quality proof: both configs must produce identical fronts; compute
  // HV against shared bounds anyway so the record carries the numbers.
  std::map<std::string, ObjectiveVector> lo, hi;
  for (const auto& stats : {&naive, &full}) {
    for (const auto& [name, front] : stats->fronts) {
      if (front.empty()) continue;
      if (lo.find(name) == lo.end()) {
        lo[name] = front[0];
        hi[name] = front[0];
      }
      ExtendBounds(front, &lo[name], &hi[name]);
    }
  }
  const bool identical = FrontsIdentical(naive, full);
  const double hv_naive = AvgHypervolume(naive, lo, hi);
  const double hv_full = AvgHypervolume(full, lo, hi);
  const double speedup = naive.sustained_rps > 0
                             ? full.sustained_rps / naive.sustained_rps
                             : 0.0;
  std::printf("speedup %.2fx at %s fronts (avg HV %.4f vs %.4f)\n\n", speedup,
              identical ? "identical" : "DIVERGENT", hv_full, hv_naive);

  // Phase 2: tail latency at one common, sustainable offered load.
  const double common_rps = 0.5 * naive.sustained_rps;
  std::printf("==== model=%s: latency at common offered load (%.1f rps) "
              "====\n", model, common_rps);
  auto naive_lat = RunOpenLoop(&registry, /*shared_cache=*/false, sessions,
                               common_rps, n_latency,
                               /*queue_capacity=*/256, /*seed=*/202);
  auto full_lat = RunOpenLoop(&registry, /*shared_cache=*/true, sessions,
                              common_rps, n_latency,
                              /*queue_capacity=*/256, /*seed=*/202);
  struct Row {
    const char* config;
    const RunStats* cap;
    const RunStats* lat;
  };
  const std::vector<Row> rows = {{"naive", &naive, &naive_lat},
                                 {"batched+shared", &full, &full_lat}};

  Table lat({"config", "p50 solve (ms)", "p99 solve (ms)",
             "p50 sojourn (ms)", "p99 sojourn (ms)"});
  for (const Row& r : rows) {
    lat.AddRow({r.config, Fmt("%.2f", r.lat->p50_solve_ms),
                Fmt("%.2f", r.lat->p99_solve_ms),
                Fmt("%.2f", r.lat->p50_sojourn_ms),
                Fmt("%.2f", r.lat->p99_sojourn_ms)});
  }
  lat.Print();
  std::printf("\n");

  for (const Row& r : rows) {
    obs::Json tp{obs::JsonObject{}};
    tp.Set("config", r.config);
    tp.Set("model", model);
    tp.Set("sustained_rps", r.cap->sustained_rps);
    tp.Set("completed", static_cast<uint64_t>(r.cap->completed));
    tp.Set("sessions", static_cast<uint64_t>(sessions));
    tp.Set("queries", static_cast<uint64_t>(r.cap->fronts.size()));
    EmitJson("tuning_service_throughput", tp);

    obs::Json lt{obs::JsonObject{}};
    lt.Set("config", r.config);
    lt.Set("model", model);
    lt.Set("p50_solve_ms", r.lat->p50_solve_ms);
    lt.Set("p99_solve_ms", r.lat->p99_solve_ms);
    lt.Set("p50_sojourn_ms", r.lat->p50_sojourn_ms);
    lt.Set("p99_sojourn_ms", r.lat->p99_sojourn_ms);
    lt.Set("offered_rps", common_rps);
    lt.Set("achieved_rps", r.lat->achieved_rps);
    EmitJson("tuning_service_latency", lt);
  }

  obs::Json sp{obs::JsonObject{}};
  sp.Set("model", model);
  sp.Set("speedup", speedup);
  sp.Set("fronts_identical", identical ? 1.0 : 0.0);
  sp.Set("avg_hv_naive", hv_naive);
  sp.Set("avg_hv_full", hv_full);
  EmitJson("tuning_service_speedup", sp);
}

}  // namespace

int main(int argc, char** argv) {
  TraceExport trace(&argc, argv);
  RunAxis("analytic", /*learned=*/false);
  RunAxis("learned", /*learned=*/true);
  return 0;
}
