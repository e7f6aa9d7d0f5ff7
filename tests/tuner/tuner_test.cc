#include "tuner/tuner.h"

#include <gtest/gtest.h>

#include <limits>

#include "workload/tpch.h"

namespace sparkopt {
namespace {

TunerOptions FastOptions() {
  TunerOptions o;
  o.hmooc.theta_c_samples = 24;
  o.hmooc.clusters = 6;
  o.hmooc.theta_p_samples = 32;
  o.hmooc.enriched_samples = 8;
  o.mo_ws.samples = 1500;
  o.evo.max_evaluations = 300;
  o.pf.inner_samples = 200;
  o.pf.max_points = 6;
  o.so_fw_samples = 1000;
  return o;
}

class TunerMethodTest : public ::testing::TestWithParam<TuningMethod> {
 protected:
  std::vector<TableStats> catalog_ = TpchCatalog(10);
};

TEST_P(TunerMethodTest, RunsEndToEnd) {
  Tuner tuner(FastOptions());
  auto q = *MakeTpchQuery(3, &catalog_);
  auto out = tuner.Run(q, GetParam());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->execution.exec.latency, 0.0);
  EXPECT_GT(out->execution.exec.cost, 0.0);
  if (GetParam() != TuningMethod::kDefault) {
    EXPECT_FALSE(out->moo.pareto.empty());
    EXPECT_GT(out->solve_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, TunerMethodTest,
    ::testing::Values(TuningMethod::kDefault, TuningMethod::kHmooc3,
                      TuningMethod::kHmooc3Plus, TuningMethod::kMoWs,
                      TuningMethod::kSoFixedWeights, TuningMethod::kEvoQuery,
                      TuningMethod::kPfQuery),
    [](const auto& info) {
      std::string n = TuningMethodName(info.param);
      for (auto& c : n) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

TEST(TunerTest, Hmooc3BeatsDefaultOnLatencyPriority) {
  Tuner tuner(FastOptions());
  auto catalog = TpchCatalog(10);
  // Aggregate over a few queries: individual queries may vary, the sum
  // must improve clearly (the paper's Table 4 headline).
  double def = 0, h3 = 0;
  for (int qid : {3, 5, 9, 10}) {
    auto q = *MakeTpchQuery(qid, &catalog);
    def += tuner.Run(q, TuningMethod::kDefault)->execution.exec.latency;
    h3 += tuner.Run(q, TuningMethod::kHmooc3)->execution.exec.latency;
  }
  EXPECT_LT(h3, 0.8 * def);
}

TEST(TunerTest, RuntimeStatsPopulatedForHmooc3Plus) {
  Tuner tuner(FastOptions());
  auto catalog = TpchCatalog(10);
  auto q = *MakeTpchQuery(5, &catalog);
  auto out = tuner.Run(q, TuningMethod::kHmooc3Plus);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->runtime_stats.TotalSent() + out->runtime_stats.TotalPruned(),
            0);
}

TEST(TunerTest, PreferenceShiftsTheChosenTradeoff) {
  auto catalog = TpchCatalog(10);
  auto q = *MakeTpchQuery(5, &catalog);
  auto fast_opts = FastOptions();
  fast_opts.preference = {1.0, 0.0};
  auto cheap_opts = FastOptions();
  cheap_opts.preference = {0.0, 1.0};
  auto fast = Tuner(fast_opts).Run(q, TuningMethod::kHmooc3);
  auto cheap = Tuner(cheap_opts).Run(q, TuningMethod::kHmooc3);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(cheap.ok());
  // Predicted objectives of the chosen points follow the preference.
  EXPECT_LE(fast->chosen.objectives[0], cheap->chosen.objectives[0] + 1e-9);
  EXPECT_GE(fast->chosen.objectives[1], cheap->chosen.objectives[1] - 1e-9);
}

TEST(TunerTest, RunWithConfigExecutesGivenConfiguration) {
  Tuner tuner(FastOptions());
  auto catalog = TpchCatalog(10);
  auto q = *MakeTpchQuery(3, &catalog);
  auto conf = DefaultSparkConfig();
  conf[kExecutorInstances] = 16;
  conf[kExecutorCores] = 8;
  auto big = tuner.RunWithConfig(q, conf);
  auto def = tuner.RunWithConfig(q, DefaultSparkConfig());
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(def.ok());
  EXPECT_LT(big->execution.exec.latency, def->execution.exec.latency);
  EXPECT_GT(big->execution.exec.cost, def->execution.exec.cost);
}

// A baseline that draws no sample has no front; Run reports that as it
// does for PF and HMOOC with a zero budget.
TEST(TunerTest, EmptySampleBudgetIsAnError) {
  auto catalog = TpchCatalog(10);
  auto q = *MakeTpchQuery(3, &catalog);
  TunerOptions ws = FastOptions();
  ws.mo_ws.samples = 0;
  auto ws_out = Tuner(ws).Run(q, TuningMethod::kMoWs);
  ASSERT_FALSE(ws_out.ok());
  EXPECT_EQ(ws_out.status().code(), StatusCode::kInternal);
  TunerOptions fw = FastOptions();
  fw.so_fw_samples = 0;
  auto fw_out = Tuner(fw).Run(q, TuningMethod::kSoFixedWeights);
  ASSERT_FALSE(fw_out.ok());
  EXPECT_EQ(fw_out.status().code(), StatusCode::kInternal);
}

// Every path that reads the preference (the WUN pick, SO-FW, the runtime
// optimizer) rejects one that is not a finite, non-negative weight per
// objective, as TuningService::Solve does.
TEST(TunerTest, MalformedPreferenceIsRejected) {
  auto catalog = TpchCatalog(10);
  auto q = *MakeTpchQuery(3, &catalog);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& pref : std::vector<std::vector<double>>{
           {nan, 1.0}, {inf, 1.0}, {-1.0, 2.0}, {1.0}, {0.5, 0.3, 0.2}}) {
    TunerOptions opts = FastOptions();
    opts.preference = pref;
    const Tuner tuner(opts);
    for (TuningMethod method :
         {TuningMethod::kHmooc3, TuningMethod::kHmooc3Plus,
          TuningMethod::kMoWs, TuningMethod::kSoFixedWeights}) {
      auto out = tuner.Run(q, method);
      ASSERT_FALSE(out.ok()) << TuningMethodName(method) << ", "
                             << pref.size() << " weights";
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    }
    auto runtime = tuner.RunWithConfig(q, DefaultSparkConfig(),
                                       /*runtime_opt=*/true);
    ASSERT_FALSE(runtime.ok()) << pref.size() << " weights";
    EXPECT_EQ(runtime.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TunerTest, MethodNamesStable) {
  EXPECT_STREQ(TuningMethodName(TuningMethod::kHmooc3), "HMOOC3");
  EXPECT_STREQ(TuningMethodName(TuningMethod::kHmooc3Plus), "HMOOC3+");
  EXPECT_STREQ(TuningMethodName(TuningMethod::kMoWs), "MO-WS");
  EXPECT_STREQ(TuningMethodName(TuningMethod::kSoFixedWeights), "SO-FW");
}

TEST(TunerTest, SolveTimeWithinCloudBudget) {
  // The paper's headline constraint: compile-time solving within 1-2 s.
  // The budget only makes sense for optimized builds; instrumented builds
  // (sanitizers, Debug, invariant verification) get generous headroom so
  // the test still exercises the path without asserting on wall clock.
#if defined(NDEBUG) && !defined(SPARKOPT_VERIFY) &&  \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  const double budget_s = 2.0;
#else
  const double budget_s = 60.0;
#endif
  Tuner tuner(TunerOptions{});
  auto catalog = TpchCatalog(100);
  auto q = *MakeTpchQuery(9, &catalog);
  auto out = tuner.Run(q, TuningMethod::kHmooc3);
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out->solve_seconds, budget_s);
}

}  // namespace
}  // namespace sparkopt
