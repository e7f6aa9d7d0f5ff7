/// \file bench_pareto_ops.cc
/// \brief Micro-benchmarks of the Pareto primitives every MOO solver sits
/// on: non-dominated filtering (the O(n log n) 2D and 3D paths),
/// hypervolume, WUN recommendation, and the Minkowski merge of HMOOC1's
/// divide-and-conquer aggregation — on distinct-point fronts and on the
/// capped, duplicate-heavy fronts HMOOC1 actually merges.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "common/pareto.h"
#include "common/pareto_flat.h"
#include "common/rng.h"

namespace sparkopt {
namespace {

std::vector<ObjectiveVector> RandomPoints(size_t n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(k));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.Uniform();
  }
  return pts;
}

// A synthetic Pareto front of exactly n points (x strictly increasing, y
// strictly decreasing). Filtering random uniforms keeps only ~log n
// points, which under-exercises the merge; real HMOOC fronts are capped
// staircases like this one.
std::vector<ObjectiveVector> StaircaseFront(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(2));
  double x = 0.0;
  double y = static_cast<double>(n);
  for (auto& p : pts) {
    x += rng.Uniform(0.1, 1.0);
    y -= rng.Uniform(0.1, 1.0);
    p = {x, y};
  }
  return pts;
}

// A synthetic 3-D front of exactly n points: x strictly increasing and
// y strictly decreasing makes every pair mutually non-dominated for any
// z, so the third axis can be free-ranging without shrinking the front.
std::vector<ObjectiveVector> StaircaseFront3(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectiveVector> pts(n, ObjectiveVector(3));
  double x = 0.0;
  double y = static_cast<double>(n);
  for (auto& p : pts) {
    x += rng.Uniform(0.1, 1.0);
    y -= rng.Uniform(0.1, 1.0);
    p = {x, y, rng.Uniform(0.0, static_cast<double>(n))};
  }
  return pts;
}

Front2 ToFront2(const std::vector<ObjectiveVector>& pts) {
  Front2 f;
  for (size_t i = 0; i < pts.size(); ++i) f.Append(pts[i][0], pts[i][1], i);
  return f;
}

Front3 ToFront3(const std::vector<ObjectiveVector>& pts) {
  Front3 f;
  for (size_t i = 0; i < pts.size(); ++i) {
    f.Append(pts[i][0], pts[i][1], pts[i][2], i);
  }
  return f;
}

void BM_ParetoFilter2D(benchmark::State& state) {
  const auto pts = RandomPoints(state.range(0), 2, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParetoIndices(pts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParetoFilter2D)->Range(64, 65536);

void BM_ParetoFilter3D(benchmark::State& state) {
  const auto pts = RandomPoints(state.range(0), 3, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParetoIndices(pts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParetoFilter3D)->Range(64, 4096);

void BM_Hypervolume2D(benchmark::State& state) {
  auto pts = RandomPoints(state.range(0), 2, 7);
  auto front = ParetoFilter(pts);
  ObjectiveVector ref = {1.2, 1.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hypervolume2D(front, ref));
  }
}
BENCHMARK(BM_Hypervolume2D)->Range(64, 16384);

void BM_WunRecommendation(benchmark::State& state) {
  auto front = ParetoFilter(RandomPoints(state.range(0), 2, 11));
  std::vector<double> w = {0.9, 0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedUtopiaNearest(front, w));
  }
}
BENCHMARK(BM_WunRecommendation)->Range(64, 16384);

void BM_MinkowskiMerge(benchmark::State& state) {
  const Front2 a = ToFront2(ParetoFilter(RandomPoints(state.range(0), 2, 3)));
  const Front2 b = ToFront2(ParetoFilter(RandomPoints(state.range(0), 2, 5)));
  Front2 out;
  ParetoScratch scratch;
  for (auto _ : state) {
    FlatMerge2(a, b, &out, &scratch, /*cap=*/0);
    benchmark::DoNotOptimize(out.x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * a.size() * b.size());
}
BENCHMARK(BM_MinkowskiMerge)->Range(256, 16384);

// Dense staircase fronts: the output-sensitive path vs the materialized
// cross product, on inputs shaped like HMOOC1's capped intermediates.
void BM_MinkowskiMergeFront(benchmark::State& state) {
  const Front2 a = ToFront2(StaircaseFront(state.range(0), 3));
  const Front2 b = ToFront2(StaircaseFront(state.range(0), 5));
  Front2 out;
  ParetoScratch scratch;
  for (auto _ : state) {
    FlatMerge2(a, b, &out, &scratch, /*cap=*/0);
    benchmark::DoNotOptimize(out.x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * a.size() * b.size());
}
BENCHMARK(BM_MinkowskiMergeFront)->Range(256, 8192);

// 3-objective staircase merge: the kd-staircase path of FlatMerge3
// against inputs shaped like HMOOC1's 3-objective intermediates.
void BM_MinkowskiMerge3Front(benchmark::State& state) {
  const Front3 a = ToFront3(StaircaseFront3(state.range(0), 3));
  const Front3 b = ToFront3(StaircaseFront3(state.range(0), 5));
  Front3 out;
  ParetoScratch scratch;
  for (auto _ : state) {
    FlatMerge3(a, b, &out, &scratch, /*cap=*/0);
    benchmark::DoNotOptimize(out.x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * a.size() * b.size());
}
BENCHMARK(BM_MinkowskiMerge3Front)->Range(256, 4096);

void BM_MinkowskiMergeFrontNaive(benchmark::State& state) {
  const auto a = StaircaseFront(state.range(0), 3);
  const auto b = StaircaseFront(state.range(0), 5);
  std::vector<MergePair> pairs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeFrontsNaive(a, b, &pairs));
  }
  state.SetItemsProcessed(state.iterations() * a.size() * b.size());
}
BENCHMARK(BM_MinkowskiMergeFrontNaive)->Range(256, 2048);

}  // namespace

// RESULT-line JSON for the driver's perf trajectory: merge ns per output
// point, FlatMerge2 on a reused scratch vs the naive cross-product
// oracle, on staircase fronts. Runs after the google-benchmark loops
// (and alone in CI, where the loops are filtered out).
void EmitMergeResults() {
  const bool fast = benchutil::FastMode();
  const int reps = fast ? 3 : 10;
  ParetoScratch scratch;
  Front2 merged;
  std::vector<MergePair> pairs;
  for (const size_t n : {size_t{256}, size_t{1024}, size_t{4096}}) {
    const auto pa = StaircaseFront(n, 3);
    const auto pb = StaircaseFront(n, 5);
    const Front2 a = ToFront2(pa), b = ToFront2(pb);
    double flat_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      benchutil::Timer timer;
      FlatMerge2(a, b, &merged, &scratch, /*cap=*/0);
      flat_s = std::min(flat_s, timer.Seconds());
    }
    const size_t out_size = merged.size();
    // The naive oracle materializes n^2 points; keep it to sizes where
    // that is still measurable in seconds, not minutes.
    double naive_s = -1.0;
    if (n <= (fast ? 1024u : 4096u)) {
      naive_s = 1e300;
      const int naive_reps = n <= 1024 ? reps : 1;
      for (int r = 0; r < naive_reps; ++r) {
        benchutil::Timer timer;
        const auto naive = MergeFrontsNaive(pa, pb, &pairs);
        naive_s = std::min(naive_s, timer.Seconds());
      }
    }
    obs::JsonObject o;
    o.emplace_back("front_size", obs::Json(static_cast<uint64_t>(n)));
    o.emplace_back("out_size", obs::Json(static_cast<uint64_t>(out_size)));
    o.emplace_back("flat_ns_per_point",
                   obs::Json(flat_s * 1e9 / out_size));
    if (naive_s >= 0.0) {
      o.emplace_back("naive_ns_per_point",
                     obs::Json(naive_s * 1e9 / out_size));
      o.emplace_back("speedup", obs::Json(naive_s / flat_s));
    }
    benchutil::EmitJson("pareto_merge", obs::Json(std::move(o)));
  }
}

// Same contract for the 3-objective kernel: FlatMerge3 vs the naive
// materialized cross product, on 3-D staircase fronts.
void EmitMerge3Results() {
  const bool fast = benchutil::FastMode();
  const int reps = fast ? 3 : 10;
  ParetoScratch scratch;
  Front3 merged;
  std::vector<MergePair> pairs;
  for (const size_t n : {size_t{256}, size_t{1024}, size_t{4096}}) {
    const auto pa = StaircaseFront3(n, 3);
    const auto pb = StaircaseFront3(n, 5);
    const Front3 a = ToFront3(pa), b = ToFront3(pb);
    double flat_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      benchutil::Timer timer;
      FlatMerge3(a, b, &merged, &scratch, /*cap=*/0);
      flat_s = std::min(flat_s, timer.Seconds());
    }
    const size_t out_size = merged.size();
    double naive_s = -1.0;
    if (n <= (fast ? 1024u : 4096u)) {
      naive_s = 1e300;
      const int naive_reps = n <= 1024 ? reps : 1;
      for (int r = 0; r < naive_reps; ++r) {
        benchutil::Timer timer;
        const auto naive = MergeFrontsNaive(pa, pb, &pairs);
        naive_s = std::min(naive_s, timer.Seconds());
      }
    }
    obs::JsonObject o;
    o.emplace_back("front_size", obs::Json(static_cast<uint64_t>(n)));
    o.emplace_back("out_size", obs::Json(static_cast<uint64_t>(out_size)));
    o.emplace_back("flat_ns_per_point",
                   obs::Json(flat_s * 1e9 / out_size));
    if (naive_s >= 0.0) {
      o.emplace_back("naive_ns_per_point",
                     obs::Json(naive_s * 1e9 / out_size));
      o.emplace_back("speedup", obs::Json(naive_s / flat_s));
    }
    benchutil::EmitJson("pareto_merge3", obs::Json(std::move(o)));
  }
}

// HMOOC1's own merge traffic: an effective set repeats one objective
// vector per tied pool conf, so its divide-and-conquer merges see a few
// distinct points, each repeated up to dc_front_cap (192) times, and thin
// the kept multiset back to the cap. Both fronts hold `distinct`
// staircase points, 192 / distinct copies each, spaced so that no two
// run pairs sum to the same point, as in HMOOC1's merges.
void EmitRunMergeResults() {
  constexpr size_t kCap = 192;
  const bool fast = benchutil::FastMode();
  const int reps = fast ? 3 : 10;
  const int merges = fast ? 200 : 1000;
  for (const int k : {2, 3}) {
    for (const size_t distinct : {size_t{1}, size_t{4}}) {
      Front2 a2, b2, out2;
      Front3 a3, b3, out3;
      for (size_t p = 0; p < kCap; ++p) {
        const double d = static_cast<double>(p % distinct);
        a2.Append(d, 8.0 - d, p);
        b2.Append(2.5 * d, 8.0 - 2.5 * d, p);
        a3.Append(d, 8.0 - d, d, p);
        b3.Append(2.5 * d, 8.0 - 2.5 * d, 0.5 * d, p);
      }
      ParetoScratch scratch;
      double best_s = 1e300;
      size_t out_size = 0;
      for (int r = 0; r < reps; ++r) {
        benchutil::Timer timer;
        for (int m = 0; m < merges; ++m) {
          if (k == 3) {
            FlatMerge3(a3, b3, &out3, &scratch, kCap);
          } else {
            FlatMerge2(a2, b2, &out2, &scratch, kCap);
          }
        }
        best_s = std::min(best_s, timer.Seconds() / merges);
        out_size = k == 3 ? out3.size() : out2.size();
      }
      obs::JsonObject o;
      o.emplace_back("k", obs::Json(static_cast<uint64_t>(k)));
      o.emplace_back("distinct", obs::Json(static_cast<uint64_t>(distinct)));
      o.emplace_back("in_points", obs::Json(static_cast<uint64_t>(kCap)));
      o.emplace_back("out_size", obs::Json(static_cast<uint64_t>(out_size)));
      o.emplace_back("us_per_merge", obs::Json(best_s * 1e6));
      benchutil::EmitJson("pareto_merge_runs", obs::Json(std::move(o)));
    }
  }
}

}  // namespace sparkopt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sparkopt::EmitMergeResults();
  sparkopt::EmitMerge3Results();
  sparkopt::EmitRunMergeResults();
  return 0;
}
