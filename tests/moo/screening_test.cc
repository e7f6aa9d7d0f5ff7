#include "moo/objective_models.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/check.h"
#include "common/pareto.h"
#include "common/rng.h"
#include "moo/hmooc.h"
#include "params/sampler.h"
#include "params/spark_params.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

// ---------------------------------------------------------------------------
// SelectSurvivors2 unit tests.
// ---------------------------------------------------------------------------

std::set<size_t> Survivors(const std::vector<ObjectiveVector>& tier0,
                           double margin, int min_promote,
                           double promote_frac) {
  std::vector<size_t> out;
  SelectSurvivors2(tier0, margin, min_promote, promote_frac, &out);
  return {out.begin(), out.end()};
}

// Deterministic scattered points, no RNG needed.
std::vector<ObjectiveVector> ScatterPoints(size_t n) {
  std::vector<ObjectiveVector> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({1.0 + (i * 37 % 101) / 20.0, 1.0 + (i * 61 % 101) / 20.0});
  }
  return pts;
}

TEST(SelectSurvivors2Test, OutputSortedUniqueAndNonEmpty) {
  const auto pts = ScatterPoints(40);
  std::vector<size_t> out;
  SelectSurvivors2(pts, 0.1, 4, 0.1, &out);
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(std::set<size_t>(out.begin(), out.end()).size(), out.size());
  for (size_t i : out) EXPECT_LT(i, pts.size());
}

TEST(SelectSurvivors2Test, FrontMembersAlwaysSurvive) {
  const auto pts = ScatterPoints(40);
  const auto surv = Survivors(pts, 0.0, 2, 0.0);
  for (size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < pts.size() && !dominated; ++j) {
      dominated = j != i && Dominates(pts[j], pts[i]);
    }
    if (!dominated) {
      EXPECT_TRUE(surv.count(i)) << "tier-0 front point " << i << " pruned";
    }
  }
}

// The documented monotonicity contract: a larger survival margin yields a
// superset of survivors (the band is a prefix of the (ratio, index) sort
// order; floor and extreme guarantee are margin-independent).
TEST(SelectSurvivors2Test, LargerMarginYieldsSupersetOfSurvivors) {
  const auto pts = ScatterPoints(60);
  const double margins[] = {0.0, 0.02, 0.1, 0.3, 1.0};
  std::set<size_t> prev;
  for (double m : margins) {
    const auto cur = Survivors(pts, m, 4, 0.05);
    EXPECT_TRUE(std::includes(cur.begin(), cur.end(), prev.begin(),
                              prev.end()))
        << "margin " << m << " lost a survivor of a tighter margin";
    prev = cur;
  }
  // And the widest margin keeps everyone.
  EXPECT_EQ(Survivors(pts, 1e12, 2, 0.0).size(), pts.size());
}

TEST(SelectSurvivors2Test, FloorPromotesAtLeastKCandidates) {
  // A dominated chain: front is a single point, so a zero margin alone
  // would keep one survivor — the floor must top it up.
  std::vector<ObjectiveVector> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back({1.0 + i, 1.0 + i});
  }
  EXPECT_GE(Survivors(pts, 0.0, 8, 0.0).size(), 8u);
  // promote_frac drives the floor too: ceil(0.5 * 20) = 10.
  EXPECT_GE(Survivors(pts, 0.0, 2, 0.5).size(), 10u);
  // Tiny pools are returned whole (floor clamps to n).
  std::vector<ObjectiveVector> two = {{1, 1}, {2, 2}};
  EXPECT_EQ(Survivors(two, 0.0, 8, 0.0).size(), 2u);
}

// The extreme guarantee: a candidate that is near-best on one objective
// but poor on the other scores a bad dominance ratio, yet the boundary
// DAG aggregation consumes per-objective minima — the top
// max(1, min_promote / 2) of each single objective must always escalate.
TEST(SelectSurvivors2Test, PerObjectiveExtremesGuaranteed) {
  std::vector<ObjectiveVector> pts = {{1.0, 1.0}};
  // Index 1: second-best latency, dominated and ratio-wise far from the
  // front (max(1.001/1, 100/1) = 100).
  pts.push_back({1.001, 100.0});
  for (int i = 0; i < 10; ++i) pts.push_back({2.0 + i * 0.1, 2.0 + i * 0.1});
  // min_promote = 4 floors the ratio order at 4 survivors; index 1 has
  // the worst ratio of all 12, so only the guarantee can save it.
  const auto surv = Survivors(pts, 0.0, 4, 0.0);
  EXPECT_TRUE(surv.count(1))
      << "near-extreme candidate starved by the dominance ratio";
}

// ---------------------------------------------------------------------------
// ScreeningSubQModel and solver integration.
// ---------------------------------------------------------------------------

struct Fixture {
  std::vector<TableStats> catalog = TpchCatalog(10);
  ClusterSpec cluster;
  CostModelParams cost;
  Query q;
  AnalyticSubQModel model;

  explicit Fixture(int qid = 3)
      : q(*MakeTpchQuery(qid, &catalog)), model(&q, cluster, cost) {}

  HmoocOptions SmallOpts() {
    HmoocOptions o;
    o.theta_c_samples = 24;
    o.clusters = 6;
    o.theta_p_samples = 32;
    o.enriched_samples = 8;
    o.aggregation = DagAggregation::kBoundary;
    o.seed = 7;
    return o;
  }
};

// Distilled screens for the fixture's TPC-H Q3 (64 samples, seed 7 =
// SmallOpts().seed), trained once per test binary.
const std::vector<Regressor>& Q3Screens() {
  static const std::vector<Regressor> screens = [] {
    Fixture fx;
    auto trained =
        TrainDistilledScreens(fx.model, /*samples=*/64, /*seed=*/7);
    SPARKOPT_CHECK(trained.ok()) << trained.status().message();
    return std::move(*trained);
  }();
  return screens;
}

FidelityOptions DistilledFidelity() {
  FidelityOptions fo;
  fo.mode = FidelityMode::kDistilled;
  fo.distilled = &Q3Screens();
  return fo;
}

void ExpectSameFront(const MooRunResult& a, const MooRunResult& b,
                     const char* what) {
  ASSERT_EQ(a.pareto.size(), b.pareto.size()) << what;
  for (size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].objectives, b.pareto[i].objectives)
        << what << " point " << i;
    EXPECT_EQ(a.pareto[i].per_subq_conf, b.pareto[i].per_subq_conf)
        << what << " point " << i;
  }
}

// fidelity_mode=off must leave the single-fidelity path bitwise intact.
TEST(ScreeningTest, OffModeBitwiseIdenticalToDefaultOptions) {
  Fixture plain_fx, off_fx;
  const auto plain = HmoocSolver(&plain_fx.model, plain_fx.SmallOpts())
                         .Solve();
  auto opts = off_fx.SmallOpts();
  opts.fidelity.mode = FidelityMode::kOff;
  opts.fidelity.survival_margin = 0.01;  // ignored when off
  const auto off = HmoocSolver(&off_fx.model, opts).Solve();
  ExpectSameFront(plain, off, "off-vs-default");
  EXPECT_EQ(plain.evaluations, off.evaluations);
}

// With an unbounded band everyone survives every batch, so the screened
// solve must reproduce the single-fidelity front bitwise (the screen only
// reorders work it cannot skip).
TEST(ScreeningTest, UnboundedMarginBitwiseIdenticalToOff) {
  Fixture off_fx, scr_fx;
  const auto off = HmoocSolver(&off_fx.model, off_fx.SmallOpts()).Solve();
  auto opts = scr_fx.SmallOpts();
  opts.fidelity = DistilledFidelity();
  opts.fidelity.survival_margin = 1e12;
  const auto scr = HmoocSolver(&scr_fx.model, opts).Solve();
  ExpectSameFront(off, scr, "unbounded-margin");
  EXPECT_EQ(off.evaluations, scr.evaluations);
}

// The screened solve keeps the repo's determinism contract: bitwise the
// same front regardless of thread count, at fixed fidelity options.
TEST(ScreeningTest, BitwiseIdenticalAcrossThreadCounts) {
  Fixture seq_fx, par_fx;  // separate models: separate eval counters
  auto seq_opts = seq_fx.SmallOpts();
  seq_opts.fidelity = DistilledFidelity();
  seq_opts.fidelity.survival_margin = 0.05;
  seq_opts.num_threads = 1;
  auto par_opts = par_fx.SmallOpts();
  par_opts.fidelity = seq_opts.fidelity;
  par_opts.num_threads = 4;
  const auto a = HmoocSolver(&seq_fx.model, seq_opts).Solve();
  const auto b = HmoocSolver(&par_fx.model, par_opts).Solve();
  ExpectSameFront(a, b, "threads 1 vs 4");
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// Final fronts must be built from tier-1 objectives only: every reported
// point re-evaluates to itself under the full model.
TEST(ScreeningTest, FrontObjectivesMatchTier1ReEvaluation) {
  Fixture fx;
  auto opts = fx.SmallOpts();
  opts.fidelity = DistilledFidelity();
  opts.fidelity.survival_margin = 0.02;
  const auto r = HmoocSolver(&fx.model, opts).Solve();
  ASSERT_FALSE(r.pareto.empty());
  for (const auto& sol : r.pareto) {
    double lat = 0, cost = 0;
    for (int i = 0; i < fx.model.num_subqs(); ++i) {
      const auto f = fx.model.Evaluate(i, sol.per_subq_conf[i]);
      lat += f[0];
      cost += f[1];
    }
    EXPECT_NEAR(sol.objectives[0], lat, 1e-6 * std::max(1.0, lat));
    EXPECT_NEAR(sol.objectives[1], cost, 1e-6 * std::max(1.0, cost));
  }
}

// Hypervolume anchored at the origin with a shared 1.1x reference point:
// loss relative to the objective magnitude, not to the (possibly narrow)
// min-max range of the fronts.
double OriginHv(const MooRunResult& r, const ObjectiveVector& ref) {
  std::vector<ObjectiveVector> pts;
  for (const auto& s : r.pareto) pts.push_back(s.objectives);
  return Hypervolume2D(pts, ref);
}

// The quality guard of the tiered pipeline: a tight screen must save
// full-fidelity evaluations while losing at most 1% hypervolume.
TEST(ScreeningTest, ScreenSavesEvaluationsWithBoundedHypervolumeLoss) {
  Fixture off_fx, scr_fx;
  const auto off = HmoocSolver(&off_fx.model, off_fx.SmallOpts()).Solve();
  auto opts = scr_fx.SmallOpts();
  opts.fidelity = DistilledFidelity();
  opts.fidelity.survival_margin = 0.02;
  opts.fidelity.promote_frac = 0.05;
  const auto scr = HmoocSolver(&scr_fx.model, opts).Solve();
  EXPECT_LT(scr.evaluations, off.evaluations)
      << "screen escalated every candidate";
  ObjectiveVector ref = {0, 0};
  for (const auto* r : {&off, &scr}) {
    for (const auto& s : r->pareto) {
      ref[0] = std::max(ref[0], s.objectives[0] * 1.1);
      ref[1] = std::max(ref[1], s.objectives[1] * 1.1);
    }
  }
  const double hv_off = OriginHv(off, ref);
  const double hv_scr = OriginHv(scr, ref);
  ASSERT_GT(hv_off, 0.0);
  EXPECT_LE((hv_off - hv_scr) / hv_off, 0.01);
}

// Direct wrapper contract: pruned entries are {+inf, +inf}, survivors are
// bitwise tier-1 values, and the counters account for both tiers.
TEST(ScreeningTest, WrapperPrunesToInfAndCountsTiers) {
  Fixture fx;
  FidelityOptions fo = DistilledFidelity();
  fo.survival_margin = 0.02;
  fo.promote_frac = 0.05;
  fo.min_promote = 4;
  ScreeningSubQModel screen(&fx.model, fo);
  ASSERT_TRUE(screen.usable());

  Rng rng(11);
  const auto confs = SampleLatinHypercube(SparkParamSpace(), 64, &rng);
  std::vector<ObjectiveVector> out, full;
  screen.EvaluateBatch(0, confs, &out);
  fx.model.EvaluateBatch(0, confs, &full);
  ASSERT_EQ(out.size(), confs.size());
  size_t pruned = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (std::isinf(out[i][0])) {
      EXPECT_TRUE(std::isinf(out[i][1]));
      ++pruned;
    } else {
      EXPECT_EQ(out[i], full[i]) << "survivor " << i << " not tier-1 exact";
    }
  }
  EXPECT_EQ(screen.tier0_evals(), confs.size());
  EXPECT_EQ(screen.tier1_evals(), confs.size() - pruned);
  EXPECT_EQ(screen.screened_batches(), 1u);
  EXPECT_GE(confs.size() - pruned, 2u) << "survivor floor violated";
}

// Pools at or below the survivor floor pass through unscreened — the
// screen cannot save anything there.
TEST(ScreeningTest, SmallBatchesPassThroughUnscreened) {
  Fixture fx;
  ScreeningSubQModel screen(&fx.model, DistilledFidelity());
  ASSERT_TRUE(screen.usable());
  Rng rng(11);
  const auto confs = SampleLatinHypercube(SparkParamSpace(), 4, &rng);
  std::vector<ObjectiveVector> out;
  screen.EvaluateBatch(0, confs, &out);
  EXPECT_EQ(screen.tier0_evals(), 0u);
  EXPECT_EQ(screen.screened_batches(), 0u);
}

// kDistilled end-to-end: train per-subQ screens, solve through them, and
// keep the tier-1-only front contract.
TEST(ScreeningTest, DistilledScreensTrainAndSolve) {
  Fixture fx;
  auto screens = TrainDistilledScreens(fx.model, /*samples=*/64, /*seed=*/7);
  ASSERT_TRUE(screens.ok()) << screens.status().message();
  ASSERT_EQ(static_cast<int>(screens->size()), fx.model.num_subqs());
  for (const auto& s : *screens) EXPECT_TRUE(s.trained());

  Fixture solve_fx;
  auto opts = solve_fx.SmallOpts();
  opts.fidelity.mode = FidelityMode::kDistilled;
  opts.fidelity.distilled = &*screens;
  const auto r = HmoocSolver(&solve_fx.model, opts).Solve();
  ASSERT_FALSE(r.pareto.empty());
  for (const auto& sol : r.pareto) {
    double lat = 0, cost = 0;
    for (int i = 0; i < solve_fx.model.num_subqs(); ++i) {
      const auto f = solve_fx.model.Evaluate(i, sol.per_subq_conf[i]);
      lat += f[0];
      cost += f[1];
    }
    EXPECT_NEAR(sol.objectives[0], lat, 1e-6 * std::max(1.0, lat));
    EXPECT_NEAR(sol.objectives[1], cost, 1e-6 * std::max(1.0, cost));
  }
}

// A kDistilled config without trained screens is unusable, and when the
// solve cannot train them (TrainDistilledScreens needs >= 16 samples) it
// must silently fall back to the single-fidelity path.
TEST(ScreeningTest, UnusableDistilledConfigFallsBackToOff) {
  Fixture fx;
  FidelityOptions fo;
  fo.mode = FidelityMode::kDistilled;  // distilled == nullptr
  fo.distill_samples = 8;
  EXPECT_FALSE(ScreeningSubQModel(&fx.model, fo).usable());

  Fixture off_fx, bad_fx;
  const auto off = HmoocSolver(&off_fx.model, off_fx.SmallOpts()).Solve();
  auto opts = bad_fx.SmallOpts();
  opts.fidelity = fo;
  const auto bad = HmoocSolver(&bad_fx.model, opts).Solve();
  ExpectSameFront(off, bad, "unusable-fallback");
  EXPECT_EQ(off.evaluations, bad.evaluations);
}

// A solve that trains its own screens (distilled == nullptr) seeds them
// with HmoocOptions::seed, so it matches a solve given screens the caller
// trained with the same samples and seed — and the training's tier-1
// labeling stays out of MooRunResult::evaluations.
TEST(ScreeningTest, SelfTrainedScreensMatchCallerTrainedScreens) {
  Fixture self_fx, given_fx;
  auto opts = self_fx.SmallOpts();
  opts.fidelity.mode = FidelityMode::kDistilled;
  opts.fidelity.distill_samples = 64;
  const auto self = HmoocSolver(&self_fx.model, opts).Solve();
  opts.fidelity.distilled = &Q3Screens();
  const auto given = HmoocSolver(&given_fx.model, opts).Solve();
  ExpectSameFront(self, given, "self-trained vs caller-trained");
  EXPECT_EQ(self.evaluations, given.evaluations);
}

}  // namespace
}  // namespace sparkopt
