#include "moo/hmooc.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>

#include "analysis/invariants.h"
#include "common/check.h"
#include "common/pareto_flat.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "moo/dag_aggregation.h"
#include "moo/kmeans.h"
#include "obs/trace.h"
#include "params/sampler.h"

namespace sparkopt {

const char* DagAggregationName(DagAggregation a) {
  switch (a) {
    case DagAggregation::kDivideAndConquer: return "HMOOC1";
    case DagAggregation::kWeightedSum: return "HMOOC2";
    case DagAggregation::kBoundary: return "HMOOC3";
  }
  return "?";
}

namespace {

// Writes the 19-double conf of (theta_c, theta_ps) into `conf` over the
// default config, reusing its storage.
void FillConf(const std::vector<double>& theta_c,
              const std::vector<double>& theta_ps, std::vector<double>* conf) {
  static const std::vector<double> kDefault = DefaultSparkConfig();
  conf->assign(kDefault.begin(), kDefault.end());
  for (size_t i = 0; i < theta_c.size() && i < 8; ++i) (*conf)[i] = theta_c[i];
  for (size_t i = 0; i < theta_ps.size() && i < 11; ++i) {
    (*conf)[8 + i] = theta_ps[i];
  }
}

std::vector<double> MakeConf(const std::vector<double>& theta_c,
                             const std::vector<double>& theta_ps) {
  std::vector<double> conf;
  FillConf(theta_c, theta_ps, &conf);
  return conf;
}

// One thread's rows for the batches of steps 3-5. They persist across
// batches and solves (RowList), so a warm thread fills, evaluates and
// filters a batch with no allocation per row. Inline solves (one thread)
// run on the caller and keep them; a pool's workers keep theirs for the
// solve.
struct BatchRows {
  RowList confs;
  RowList fs;
  std::vector<uint32_t> kept;  // ParetoPositions output
  // Step 3's batch depends on the representative only, not the subQ:
  // `confs` holds representative `rep`'s batch of solve `solve` until a
  // step-4/5 batch overwrites it.
  uint64_t solve = 0;
  int rep = -1;
};

BatchRows& TlsBatchRows() {
  thread_local BatchRows rows;
  return rows;
}

// Step 7's points, staged straight from the aggregated batches: their
// objectives in the Pareto kernel's SoA scratch (ax, ay[, az]), and each
// point's candidate and choice row. Kept per thread across solves.
struct FrontPoints {
  ParetoScratch scratch;
  std::vector<int> cand;
  std::vector<const int*> choice;
  std::vector<uint32_t> kept;
};

FrontPoints& TlsFrontPoints() {
  thread_local FrontPoints points;
  return points;
}

}  // namespace

MooRunResult HmoocSolver::Solve() const {
  obs::Span span("hmooc.solve");
  const int m = model_->num_subqs();
  const int nk = model_->num_objectives();
  SPARKOPT_CHECK(nk == 2 || nk == 3)
      << "HmoocSolver supports 2 or 3 objectives, got " << nk;
  span.Arg("subqs", m);
  span.Arg("objectives", nk);
  static std::atomic<uint64_t> next_solve{1};
  const uint64_t solve_id = next_solve.fetch_add(1, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const size_t evals_before = model_->eval_count();
  Rng rng(opts_.seed);
  // Worker pool for the independent fan-outs below. All RNG draws happen
  // on this thread before each parallel region; workers only fill
  // index-addressed slots, so results are bitwise identical at any
  // thread count. Workers must not record obs::Span (main-thread-only).
  ThreadPool workers(opts_.num_threads);
  span.Arg("threads", workers.parallelism());

  const auto& space = SparkParamSpace();
  const ParamSpace c_space = space.Subspace(ParamCategory::kContext);
  // theta_p and theta_s are sampled jointly (11 dims).
  std::vector<ParamSpec> ps_specs;
  for (const auto& s : space.specs()) {
    if (s.category != ParamCategory::kContext) ps_specs.push_back(s);
  }
  const ParamSpace ps_space(std::move(ps_specs));

  // ---- Step 1: theta_c candidates ---------------------------------------
  obs::Span sample_span("hmooc.sample_theta_c");
  std::vector<std::vector<double>> theta_c;
  if (opts_.grid_init) {
    theta_c = SampleGrid(c_space, 2,
                         static_cast<size_t>(opts_.theta_c_samples));
    // Grid init is complemented by random sampling (Section 5.1.1).
    auto extra = SampleUniform(
        c_space,
        std::max(0, opts_.theta_c_samples -
                        static_cast<int>(theta_c.size())),
        &rng, opts_.search_margin);
    theta_c.insert(theta_c.end(), extra.begin(), extra.end());
  } else {
    theta_c = SampleLatinHypercube(
        c_space, static_cast<size_t>(opts_.theta_c_samples), &rng,
        opts_.search_margin);
  }

  sample_span.Arg("candidates", static_cast<double>(theta_c.size()));
  sample_span.End();

  // ---- Step 2: cluster theta_c ------------------------------------------
  obs::Span cluster_span("hmooc.cluster_theta_c");
  std::vector<std::vector<double>> c_unit;
  c_unit.reserve(theta_c.size());
  for (const auto& c : theta_c) c_unit.push_back(c_space.Normalize(c));
  const KMeansResult km = KMeans(c_unit, opts_.clusters, 20,
                                 HashCombine(opts_.seed, 0xC1));
  const int n_clusters = static_cast<int>(km.centroids.size());
  cluster_span.Arg("clusters", n_clusters);
  cluster_span.End();
  obs::Count("hmooc.clusters", static_cast<uint64_t>(n_clusters));

  // ---- Step 3: theta_p MOO per representative ---------------------------
  obs::Span subq_span("hmooc.subq_solve");
  const auto pool = SampleLatinHypercube(
      ps_space, static_cast<size_t>(opts_.theta_p_samples), &rng,
      opts_.search_margin);
  // opt_pool[r][i] = pool indices Pareto-optimal for subQ i under rep r.
  // Each (representative, subQ) pair is independent: one batched model
  // call over the whole theta_p pool, fanned out across the workers.
  std::vector<std::vector<std::vector<int>>> opt_pool(
      n_clusters, std::vector<std::vector<int>>(m));
  workers.ParallelFor(
      static_cast<size_t>(n_clusters) * m, [&](size_t task) {
        const int r = static_cast<int>(task / m);
        const int i = static_cast<int>(task % m);
        const auto& rep_c = theta_c[km.representative[r]];
        BatchRows& batch = TlsBatchRows();
        if (batch.solve != solve_id || batch.rep != r) {
          batch.confs.Resize(pool.size());
          for (size_t j = 0; j < pool.size(); ++j) {
            FillConf(rep_c, pool[j], &batch.confs.rows[j]);
          }
          batch.solve = solve_id;
          batch.rep = r;
        }
        batch.fs.Resize(pool.size());
        obs::Observe("hmooc.subq_batch_rows",
                     static_cast<double>(pool.size()));
        model_->EvaluateBatch(i, batch.confs.rows, &batch.fs.rows);
        ParetoPositions(batch.fs.rows, &batch.kept);
        opt_pool[r][i].assign(batch.kept.begin(), batch.kept.end());
      });

  // ---- Step 4 + 5: assign optimal theta_p to members; enrich theta_c ----
  // Every (member, subQ) cell is independent: slots are pre-sized and
  // written by index, one batched model call per cell.
  auto evaluate_members =
      [&](const std::vector<std::vector<double>>& members,
          const std::vector<int>& member_cluster, EffectiveSet* eff) {
        const size_t base = eff->size();
        eff->resize(base + members.size());
        for (size_t c = 0; c < members.size(); ++c) {
          (*eff)[base + c].resize(m);
        }
        workers.ParallelFor(members.size() * m, [&](size_t task) {
          const size_t c = task / m;
          const int i = static_cast<int>(task % m);
          const int r = member_cluster[c];
          const std::vector<int>& opt = opt_pool[r][i];
          BatchRows& batch = TlsBatchRows();
          batch.rep = -1;
          batch.confs.Resize(opt.size());
          batch.fs.Resize(opt.size());
          for (size_t j = 0; j < opt.size(); ++j) {
            FillConf(members[c], pool[opt[j]], &batch.confs.rows[j]);
          }
          obs::Observe("hmooc.subq_batch_rows",
                       static_cast<double>(opt.size()));
          model_->EvaluateBatch(i, batch.confs.rows, &batch.fs.rows);
          const std::vector<ObjectiveVector>& fs = batch.fs.rows;
          auto& subq_set = (*eff)[base + c][i];
          // Keep only the member-level Pareto entries (Prop. 5.1).
          ParetoPositions(fs, &batch.kept);
          subq_set.reserve(batch.kept.size());
          for (uint32_t idx : batch.kept) {
            SubQEntry e;
            e.pool_idx = opt[idx];
            for (int d = 0; d < nk; ++d) e.f[d] = fs[idx][d];
            subq_set.push_back(e);
          }
#ifdef SPARKOPT_VERIFY
          std::vector<ObjectiveVector> subq_front;
          subq_front.reserve(subq_set.size());
          for (const auto& e : subq_set) {
            subq_front.push_back(ObjectiveVector(e.f, e.f + nk));
          }
          SPARKOPT_VERIFY_FRONT(subq_front,
                                "HmoocSolver::Solve (subQ effective set)");
#endif
        });
      };

  EffectiveSet eff;
  std::vector<std::vector<double>> all_theta_c = theta_c;
  evaluate_members(theta_c, km.assignment, &eff);
  subq_span.Arg("evaluations",
                static_cast<double>(model_->eval_count() - evals_before));
  subq_span.End();

  obs::Span enrich_span("hmooc.enrich_theta_c");
  if (opts_.enriched_samples > 0 && theta_c.size() >= 2) {
    // theta_c crossover (Appendix C.1): one-point Cartesian recombination
    // of existing candidates.
    std::vector<std::vector<double>> enriched;
    std::vector<std::vector<double>> enriched_unit;
    while (static_cast<int>(enriched.size()) < opts_.enriched_samples) {
      const size_t a = rng.NextBounded(theta_c.size());
      size_t b = rng.NextBounded(theta_c.size());
      if (a == b) b = (b + 1) % theta_c.size();
      const size_t cut = 1 + rng.NextBounded(c_space.size() - 1);
      auto [c1, c2] = CrossoverOnePoint(theta_c[a], theta_c[b], cut);
      enriched.push_back(std::move(c1));
      if (static_cast<int>(enriched.size()) < opts_.enriched_samples) {
        enriched.push_back(std::move(c2));
      }
    }
    for (const auto& c : enriched) {
      enriched_unit.push_back(c_space.Normalize(c));
    }
    const auto clusters = AssignToCentroids(enriched_unit, km.centroids);
    evaluate_members(enriched, clusters, &eff);
    all_theta_c.insert(all_theta_c.end(), enriched.begin(), enriched.end());
  }

  enrich_span.End();

  // ---- Step 6: DAG aggregation -------------------------------------------
  obs::Span merge_span("hmooc.dag_merge");
  // Aggregate each theta_c candidate independently, then concatenate in
  // candidate order so the point sequence matches the sequential path.
  // One DagAggregator per worker thread: its arena, kernel scratch, and
  // node pool reach a steady state after the first few candidates.
  std::vector<AggregatedBatch> per_cand(eff.size());
  workers.ParallelFor(eff.size(), [&](size_t c) {
    thread_local DagAggregator aggregator;
    switch (opts_.aggregation) {
      case DagAggregation::kBoundary:
        aggregator.AggregateBoundary(eff[c], nk, &per_cand[c]);
        break;
      case DagAggregation::kWeightedSum:
        aggregator.AggregateWeightedSum(eff[c], nk, opts_.ws_pairs,
                                        opts_.hmooc2_normalize_per_subq,
                                        &per_cand[c]);
        break;
      case DagAggregation::kDivideAndConquer:
        aggregator.AggregateDc(
            eff[c], nk, static_cast<size_t>(std::max(opts_.dc_front_cap, 0)),
            &per_cand[c]);
        break;
    }
  });
  size_t total_points = 0;
  for (const auto& batch : per_cand) total_points += batch.size();

  merge_span.Arg("candidates", static_cast<double>(eff.size()));
  merge_span.Arg("points", static_cast<double>(total_points));
  merge_span.End();
  obs::Count("hmooc.aggregated_points", total_points);

  // ---- Step 7: query-level Pareto filter + solution assembly -----------
  // The kernel filters the staged points; only the kept ones become
  // solutions.
  obs::Span filter_span("hmooc.pareto_filter");
  FrontPoints& points = TlsFrontPoints();
  ParetoScratch& ps = points.scratch;
  ps.ax.clear();
  ps.ay.clear();
  ps.az.clear();
  points.cand.clear();
  points.choice.clear();
  ps.ax.reserve(total_points);
  ps.ay.reserve(total_points);
  if (nk == 3) ps.az.reserve(total_points);
  points.cand.reserve(total_points);
  points.choice.reserve(total_points);
  for (size_t c = 0; c < per_cand.size(); ++c) {
    const AggregatedBatch& batch = per_cand[c];
    for (size_t p = 0; p < batch.size(); ++p) {
      const double* f = batch.obj.data() + p * nk;
      ps.ax.push_back(f[0]);
      ps.ay.push_back(f[1]);
      if (nk == 3) ps.az.push_back(f[2]);
      points.cand.push_back(static_cast<int>(c));
      points.choice.push_back(batch.choice.data() +
                              p * static_cast<size_t>(batch.width));
    }
  }
  if (nk == 2) {
    FlatParetoPositions(ps.ax.data(), ps.ay.data(), ps.ax.size(),
                        &points.kept, &ps);
  } else {
    FlatParetoPositions3(ps.ax.data(), ps.ay.data(), ps.az.data(),
                         ps.ax.size(), &points.kept, &ps);
  }

  MooRunResult result;
  // Deduplicate coincident points (e.g. a candidate whose two extreme
  // points collapse onto the same solution): a kept point equal in value
  // to an earlier solution of the same candidate adds nothing.
  std::vector<int> solution_cand;
  for (const uint32_t idx : points.kept) {
    const double f[3] = {ps.ax[idx], ps.ay[idx], nk == 3 ? ps.az[idx] : 0.0};
    const int cand = points.cand[idx];
    bool seen = false;
    for (size_t j = 0; j < solution_cand.size() && !seen; ++j) {
      seen = solution_cand[j] == cand &&
             std::equal(f, f + nk, result.pareto[j].objectives.begin());
    }
    if (seen) continue;
    solution_cand.push_back(cand);
    MooSolution sol;
    sol.objectives.assign(f, f + nk);
    sol.per_subq_conf.reserve(m);
    for (int i = 0; i < m; ++i) {
      sol.per_subq_conf.push_back(
          MakeConf(all_theta_c[cand], pool[points.choice[idx][i]]));
    }
    sol.conf = sol.per_subq_conf.front();
    result.pareto.push_back(std::move(sol));
  }
#ifdef SPARKOPT_VERIFY
  std::vector<ObjectiveVector> final_front;
  final_front.reserve(result.pareto.size());
  for (const auto& sol : result.pareto) final_front.push_back(sol.objectives);
  SPARKOPT_VERIFY_FRONT(final_front, "HmoocSolver::Solve (query front)");
#endif
  filter_span.End();
  result.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.evaluations = model_->eval_count() - evals_before;
  obs::Count("hmooc.solves");
  obs::Count("hmooc.model_evals", result.evaluations);
  obs::Count("hmooc.pareto_points", result.pareto.size());
  return result;
}

}  // namespace sparkopt
