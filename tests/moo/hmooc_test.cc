#include "moo/hmooc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "moo/objective_models.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

struct Fixture {
  std::vector<TableStats> catalog = TpchCatalog(10);
  ClusterSpec cluster;
  CostModelParams cost;
  Query q;
  AnalyticSubQModel model;

  explicit Fixture(int qid = 3)
      : q(*MakeTpchQuery(qid, &catalog)), model(&q, cluster, cost) {}

  HmoocOptions SmallOpts(DagAggregation agg) {
    HmoocOptions o;
    o.theta_c_samples = 24;
    o.clusters = 6;
    o.theta_p_samples = 32;
    o.enriched_samples = 8;
    o.aggregation = agg;
    o.seed = 7;
    return o;
  }
};

TEST(HmoocTest, SolvesAndReturnsNonDominatedFront) {
  Fixture fx;
  HmoocSolver solver(&fx.model, fx.SmallOpts(DagAggregation::kBoundary));
  auto r = solver.Solve();
  ASSERT_FALSE(r.pareto.empty());
  EXPECT_GT(r.evaluations, 0u);
  for (size_t i = 0; i < r.pareto.size(); ++i) {
    for (size_t j = 0; j < r.pareto.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(
            Dominates(r.pareto[j].objectives, r.pareto[i].objectives));
      }
    }
  }
}

TEST(HmoocTest, AllSubqueriesShareThetaC) {
  // The defining constraint of Definition 5.1.
  Fixture fx;
  HmoocSolver solver(&fx.model, fx.SmallOpts(DagAggregation::kBoundary));
  auto r = solver.Solve();
  for (const auto& sol : r.pareto) {
    ASSERT_EQ(static_cast<int>(sol.per_subq_conf.size()),
              fx.model.num_subqs());
    for (const auto& conf : sol.per_subq_conf) {
      for (int j = 0; j < 8; ++j) {
        EXPECT_DOUBLE_EQ(conf[j], sol.per_subq_conf[0][j])
            << "theta_c constraint violated at param " << j;
      }
    }
  }
}

TEST(HmoocTest, ObjectivesMatchModelReEvaluation) {
  // The reported query-level point must equal the sum of per-subQ model
  // evaluations of the returned configuration.
  Fixture fx;
  HmoocSolver solver(&fx.model, fx.SmallOpts(DagAggregation::kBoundary));
  auto r = solver.Solve();
  for (const auto& sol : r.pareto) {
    double lat = 0, cost = 0;
    for (int i = 0; i < fx.model.num_subqs(); ++i) {
      auto f = fx.model.Evaluate(i, sol.per_subq_conf[i]);
      lat += f[0];
      cost += f[1];
    }
    EXPECT_NEAR(sol.objectives[0], lat, 1e-6 * std::max(1.0, lat));
    EXPECT_NEAR(sol.objectives[1], cost, 1e-6 * std::max(1.0, cost));
  }
}

TEST(HmoocTest, Deterministic) {
  Fixture fx;
  HmoocSolver solver(&fx.model, fx.SmallOpts(DagAggregation::kBoundary));
  auto a = solver.Solve();
  auto b = solver.Solve();
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].objectives, b.pareto[i].objectives);
  }
}

// The tentpole determinism contract: the parallel solve must return
// bitwise the same front as the sequential one, for every aggregation.
TEST(HmoocTest, BitwiseIdenticalAcrossThreadCounts) {
  for (auto agg : {DagAggregation::kBoundary, DagAggregation::kWeightedSum,
                   DagAggregation::kDivideAndConquer}) {
    Fixture seq_fx, par_fx;  // separate models: no shared state
    auto seq_opts = seq_fx.SmallOpts(agg);
    seq_opts.num_threads = 1;
    auto par_opts = par_fx.SmallOpts(agg);
    par_opts.num_threads = 4;
    const auto a = HmoocSolver(&seq_fx.model, seq_opts).Solve();
    const auto b = HmoocSolver(&par_fx.model, par_opts).Solve();
    ASSERT_EQ(a.pareto.size(), b.pareto.size()) << DagAggregationName(agg);
    for (size_t i = 0; i < a.pareto.size(); ++i) {
      EXPECT_EQ(a.pareto[i].objectives, b.pareto[i].objectives)
          << DagAggregationName(agg) << " point " << i;
      EXPECT_EQ(a.pareto[i].per_subq_conf, b.pareto[i].per_subq_conf)
          << DagAggregationName(agg) << " point " << i;
    }
    EXPECT_EQ(a.evaluations, b.evaluations);
  }
}

TEST(HmoocTest, GridInitAlsoSolves) {
  Fixture fx;
  auto opts = fx.SmallOpts(DagAggregation::kBoundary);
  opts.grid_init = true;
  HmoocSolver solver(&fx.model, opts);
  auto r = solver.Solve();
  EXPECT_FALSE(r.pareto.empty());
}

// Proposition 5.3: the boundary approximation keeps at least k (=2)
// query-level Pareto points — in particular the per-objective extremes of
// the exact front.
TEST(HmoocTest, BoundaryKeepsExtremePointsOfExactFront) {
  Fixture fx;
  auto exact_opts = fx.SmallOpts(DagAggregation::kDivideAndConquer);
  auto approx_opts = fx.SmallOpts(DagAggregation::kBoundary);
  auto exact = HmoocSolver(&fx.model, exact_opts).Solve();
  auto approx = HmoocSolver(&fx.model, approx_opts).Solve();
  ASSERT_GE(approx.pareto.size(), 2u);
  auto min_of = [](const MooRunResult& r, int k) {
    double v = 1e300;
    for (const auto& s : r.pareto) v = std::min(v, s.objectives[k]);
    return v;
  };
  EXPECT_NEAR(min_of(approx, 0), min_of(exact, 0), 1e-9);
  EXPECT_NEAR(min_of(approx, 1), min_of(exact, 1), 1e-9);
}

// Lemma 1: under a fixed theta_c and raw-objective weighted sums, every
// HMOOC2 point is query-level Pareto optimal — so no exact (HMOOC1) point
// under the same single candidate may dominate it. The guarantee is per
// theta_c and for unnormalized sums, hence the restricted options.
TEST(HmoocTest, WsAggregationPointsNotDominatedByExactFront) {
  Fixture fx;
  auto exact_opts = fx.SmallOpts(DagAggregation::kDivideAndConquer);
  exact_opts.theta_c_samples = 1;
  exact_opts.clusters = 1;
  exact_opts.enriched_samples = 0;
  auto ws_opts = exact_opts;
  ws_opts.aggregation = DagAggregation::kWeightedSum;
  ws_opts.hmooc2_normalize_per_subq = false;
  auto exact = HmoocSolver(&fx.model, exact_opts).Solve();
  auto ws = HmoocSolver(&fx.model, ws_opts).Solve();
  ASSERT_FALSE(ws.pareto.empty());
  for (const auto& w : ws.pareto) {
    for (const auto& e : exact.pareto) {
      EXPECT_FALSE(Dominates(e.objectives, w.objectives))
          << "HMOOC2 returned a dominated point";
    }
  }
}

TEST(HmoocTest, ExactFrontHypervolumeAtLeastApproximations) {
  Fixture fx;
  auto exact = HmoocSolver(&fx.model,
                           fx.SmallOpts(DagAggregation::kDivideAndConquer))
                   .Solve();
  auto boundary =
      HmoocSolver(&fx.model, fx.SmallOpts(DagAggregation::kBoundary))
          .Solve();
  // Common reference point.
  ObjectiveVector ref = {0, 0};
  auto update_ref = [&](const MooRunResult& r) {
    for (const auto& s : r.pareto) {
      ref[0] = std::max(ref[0], s.objectives[0] * 1.1);
      ref[1] = std::max(ref[1], s.objectives[1] * 1.1);
    }
  };
  update_ref(exact);
  update_ref(boundary);
  auto hv = [&](const MooRunResult& r) {
    std::vector<ObjectiveVector> pts;
    for (const auto& s : r.pareto) pts.push_back(s.objectives);
    return Hypervolume2D(pts, ref);
  };
  EXPECT_GE(hv(exact), hv(boundary) - 1e-9);
}

TEST(HmoocTest, LargerBudgetDoesNotHurtHypervolume) {
  Fixture fx;
  auto small = fx.SmallOpts(DagAggregation::kBoundary);
  auto large = small;
  large.theta_c_samples = 64;
  large.theta_p_samples = 96;
  auto rs = HmoocSolver(&fx.model, small).Solve();
  auto rl = HmoocSolver(&fx.model, large).Solve();
  ObjectiveVector ref = {0, 0};
  for (const auto* r : {&rs, &rl}) {
    for (const auto& s : r->pareto) {
      ref[0] = std::max(ref[0], s.objectives[0] * 1.1);
      ref[1] = std::max(ref[1], s.objectives[1] * 1.1);
    }
  }
  auto hv = [&](const MooRunResult& r) {
    std::vector<ObjectiveVector> pts;
    for (const auto& s : r.pareto) pts.push_back(s.objectives);
    return Hypervolume2D(pts, ref);
  };
  EXPECT_GE(hv(rl), 0.9 * hv(rs));
}

TEST(HmoocTest, WorksOnSingleSubqueryPlan) {
  Fixture fx(6);  // TPCH-Q6: scan + global agg
  HmoocSolver solver(&fx.model, fx.SmallOpts(DagAggregation::kBoundary));
  auto r = solver.Solve();
  EXPECT_FALSE(r.pareto.empty());
}

TEST(HmoocTest, SearchMarginRespected) {
  Fixture fx;
  auto opts = fx.SmallOpts(DagAggregation::kBoundary);
  opts.search_margin = 0.25;
  auto r = HmoocSolver(&fx.model, opts).Solve();
  const auto& space = SparkParamSpace();
  for (const auto& sol : r.pareto) {
    for (const auto& conf : sol.per_subq_conf) {
      const auto unit = space.Normalize(conf);
      // Continuous parameters must stay inside the margin. Integer-valued
      // parameters may round to a boundary value, so skip them.
      for (size_t j = 0; j < unit.size(); ++j) {
        if (space.spec(j).type != ParamType::kFloat) continue;
        EXPECT_GE(unit[j], 0.25 - 0.02) << space.spec(j).name;
        EXPECT_LE(unit[j], 0.75 + 0.02) << space.spec(j).name;
      }
    }
  }
}

TEST(DagAggregationNameTest, Names) {
  EXPECT_STREQ(DagAggregationName(DagAggregation::kDivideAndConquer),
               "HMOOC1");
  EXPECT_STREQ(DagAggregationName(DagAggregation::kWeightedSum), "HMOOC2");
  EXPECT_STREQ(DagAggregationName(DagAggregation::kBoundary), "HMOOC3");
}

// --------------------------------------------------------------------------
// 3-objective ({latency, cost, io_gb}) end-to-end coverage.
// --------------------------------------------------------------------------

TEST(Hmooc3ObjTest, SolvesAndReturnsValidThreeDimFront) {
  for (auto agg : {DagAggregation::kBoundary, DagAggregation::kWeightedSum,
                   DagAggregation::kDivideAndConquer}) {
    Fixture fx;
    fx.model.set_num_objectives(3);
    HmoocSolver solver(&fx.model, fx.SmallOpts(agg));
    auto r = solver.Solve();
    ASSERT_FALSE(r.pareto.empty()) << DagAggregationName(agg);
    for (const auto& sol : r.pareto) {
      ASSERT_EQ(sol.objectives.size(), 3u) << DagAggregationName(agg);
      for (double v : sol.objectives) EXPECT_GE(v, 0.0);
    }
    for (size_t i = 0; i < r.pareto.size(); ++i) {
      for (size_t j = 0; j < r.pareto.size(); ++j) {
        if (i != j) {
          EXPECT_FALSE(
              Dominates(r.pareto[j].objectives, r.pareto[i].objectives))
              << DagAggregationName(agg);
        }
      }
    }
  }
}

TEST(Hmooc3ObjTest, ObjectivesMatchModelReEvaluation) {
  Fixture fx;
  fx.model.set_num_objectives(3);
  HmoocSolver solver(&fx.model,
                     fx.SmallOpts(DagAggregation::kDivideAndConquer));
  auto r = solver.Solve();
  ASSERT_FALSE(r.pareto.empty());
  for (const auto& sol : r.pareto) {
    ObjectiveVector total(3, 0.0);
    for (int i = 0; i < fx.model.num_subqs(); ++i) {
      auto f = fx.model.Evaluate(i, sol.per_subq_conf[i]);
      ASSERT_EQ(f.size(), 3u);
      for (int d = 0; d < 3; ++d) total[d] += f[d];
    }
    // The solver sums in D&C merge-tree order; linear re-accumulation
    // may differ in the last bit, so compare with DOUBLE_EQ (4 ulp).
    for (int d = 0; d < 3; ++d) {
      EXPECT_DOUBLE_EQ(total[d], sol.objectives[d]) << "objective " << d;
    }
  }
}

TEST(Hmooc3ObjTest, BitwiseIdenticalAcrossThreadCounts) {
  for (auto agg : {DagAggregation::kBoundary, DagAggregation::kWeightedSum,
                   DagAggregation::kDivideAndConquer}) {
    Fixture seq_fx, par_fx;  // separate models: no shared state
    seq_fx.model.set_num_objectives(3);
    par_fx.model.set_num_objectives(3);
    auto seq_opts = seq_fx.SmallOpts(agg);
    seq_opts.num_threads = 1;
    auto par_opts = par_fx.SmallOpts(agg);
    par_opts.num_threads = 4;
    const auto a = HmoocSolver(&seq_fx.model, seq_opts).Solve();
    const auto b = HmoocSolver(&par_fx.model, par_opts).Solve();
    ASSERT_EQ(a.pareto.size(), b.pareto.size()) << DagAggregationName(agg);
    for (size_t i = 0; i < a.pareto.size(); ++i) {
      EXPECT_EQ(a.pareto[i].objectives, b.pareto[i].objectives)
          << DagAggregationName(agg) << " point " << i;
      EXPECT_EQ(a.pareto[i].per_subq_conf, b.pareto[i].per_subq_conf)
          << DagAggregationName(agg) << " point " << i;
    }
    EXPECT_EQ(a.evaluations, b.evaluations);
  }
}

TEST(Hmooc3ObjTest, TwoAndThreeObjectiveSolvesCoexist) {
  // A 2-objective and a 3-objective solve of the same query both
  // succeed, and the third objective (io_gb) is finite and
  // non-negative — the IO axis is real evaluator output, not padding.
  Fixture fx2, fx3;
  fx3.model.set_num_objectives(3);
  const auto r2 =
      HmoocSolver(&fx2.model, fx2.SmallOpts(DagAggregation::kBoundary))
          .Solve();
  const auto r3 =
      HmoocSolver(&fx3.model, fx3.SmallOpts(DagAggregation::kBoundary))
          .Solve();
  ASSERT_FALSE(r2.pareto.empty());
  ASSERT_FALSE(r3.pareto.empty());
  for (const auto& sol : r3.pareto) {
    EXPECT_TRUE(std::isfinite(sol.objectives[2]));
    EXPECT_GE(sol.objectives[2], 0.0);
  }
}

}  // namespace
}  // namespace sparkopt
