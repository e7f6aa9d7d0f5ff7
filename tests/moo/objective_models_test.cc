#include "moo/objective_models.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "model/trainer.h"
#include "params/sampler.h"
#include "service/model_bootstrap.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

struct Fixture {
  std::vector<TableStats> catalog = TpchCatalog(10);
  ClusterSpec cluster;
  CostModelParams cost;
  Query q = *MakeTpchQuery(5, &catalog);
};

TEST(AnalyticSubQModelTest, MatchesEvaluatorDirectly) {
  Fixture fx;
  AnalyticSubQModel model(&fx.q, fx.cluster, fx.cost);
  SubQEvaluator eval(&fx.q, fx.cluster, fx.cost);
  const auto conf = DefaultSparkConfig();
  for (int i = 0; i < model.num_subqs(); ++i) {
    const auto f = model.Evaluate(i, conf);
    const auto o = eval.Evaluate(i, DecodeContext(conf), DecodePlan(conf),
                                 DecodeStage(conf),
                                 CardinalitySource::kEstimated);
    EXPECT_DOUBLE_EQ(f[0], o.analytical_latency);
    EXPECT_DOUBLE_EQ(f[1], o.cost);
  }
}

TEST(AnalyticSubQModelTest, EvalCounterIncrements) {
  Fixture fx;
  AnalyticSubQModel model(&fx.q, fx.cluster, fx.cost);
  EXPECT_EQ(model.eval_count(), 0u);
  model.Evaluate(0, DefaultSparkConfig());
  model.Evaluate(1, DefaultSparkConfig());
  EXPECT_EQ(model.eval_count(), 2u);
}

TEST(LearnedSubQModelTest, PredictsFiniteObjectives) {
  Fixture fx;
  // Train a tiny model on a handful of traces.
  TraceCollector collector(fx.cluster, fx.cost);
  ModelDataset subq, qs, lqp;
  TraceOptions topts;
  topts.runs = 25;
  topts.seed = 9;
  ASSERT_TRUE(collector
                  .Collect(
                      [&](int qid, uint64_t v) {
                        return MakeTpchQuery(qid, &fx.catalog, v);
                      },
                      22, topts, &subq, &qs, &lqp)
                  .ok());
  ModelSuite suite;
  Mlp::TrainOptions mopts;
  mopts.epochs = 15;
  ASSERT_TRUE(suite.Train(subq, qs, lqp, 4, mopts).ok());

  LearnedSubQModel model(&fx.q, fx.cluster, fx.cost, &suite.subq_model());
  for (int i = 0; i < model.num_subqs(); ++i) {
    const auto f = model.Evaluate(i, DefaultSparkConfig());
    EXPECT_GT(f[0], 0.0);
    EXPECT_GT(f[1], 0.0);
    EXPECT_LT(f[0], 1e7);
    EXPECT_LT(f[1], 1e7);
  }
  EXPECT_GT(model.eval_count(), 0u);
}

// Tuner::Run and tuning-service sessions call EvaluateBatch directly, and
// the service's shared cache escalates only its misses, so every row of
// EvaluateBatch must equal the single-conf Evaluate bit for bit, whatever
// the batch size (around the kernel's 8-row tiles and 64-row batches) and
// whichever rows share the batch.
TEST(LearnedSubQModelTest, BatchRowsMatchSingleEvaluateBitwise) {
  Fixture fx;
  const Query q3 = *MakeTpchQuery(3, &fx.catalog);
  PriceBook prices;
  BootstrapOptions bo;
  bo.samples_per_query = 12;
  bo.hidden = {16, 8};
  bo.epochs = 20;
  const std::vector<const Query*> queries = {&q3, &fx.q};
  auto reg = FitSubQRegressor(queries, fx.cluster, fx.cost, prices, bo);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();

  Rng rng(11);
  size_t compared = 0;
  for (const Query* q : queries) {
    LearnedSubQModel model(q, fx.cluster, fx.cost, &*reg, prices);
    for (const size_t n : {1, 7, 8, 9, 63, 64, 65, 100}) {
      const auto confs = SampleLatinHypercube(SparkParamSpace(), n, &rng);
      std::vector<std::vector<double>> odd;
      for (size_t i = 1; i < n; i += 2) odd.push_back(confs[i]);
      for (int subq = 0; subq < model.num_subqs(); ++subq) {
        std::vector<ObjectiveVector> batch, odd_batch;
        model.EvaluateBatch(subq, confs, &batch);
        ASSERT_EQ(batch.size(), n);
        for (size_t i = 0; i < n; ++i) {
          // operator== on vector<double> is exact.
          EXPECT_EQ(batch[i], model.Evaluate(subq, confs[i]))
              << q->name << " subq " << subq << " n " << n << " row " << i;
          ++compared;
        }
        model.EvaluateBatch(subq, odd, &odd_batch);
        ASSERT_EQ(odd_batch.size(), odd.size());
        for (size_t j = 0; j < odd.size(); ++j) {
          EXPECT_EQ(odd_batch[j], batch[2 * j + 1])
              << q->name << " subq " << subq << " n " << n << " row "
              << 2 * j + 1;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

bool SameBits(const ObjectiveVector& a, const ObjectiveVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// EvaluateBatch writes rows in place (moo/problem.h): an `out` that holds
// more rows than the batch, each of the other objective width and full
// of NaN, must come back with the bits a fresh `out` gets.
void ExpectReusedOutMatchesFresh(const SubQObjectiveModel& model, int k) {
  Rng rng(17);
  const auto confs = SampleLatinHypercube(SparkParamSpace(), 9, &rng);
  const size_t other = k == 2 ? 3 : 2;
  for (int subq = 0; subq < model.num_subqs(); ++subq) {
    std::vector<ObjectiveVector> fresh;
    model.EvaluateBatch(subq, confs, &fresh);
    ASSERT_EQ(fresh.size(), confs.size());
    std::vector<ObjectiveVector> reused(
        confs.size() + 3,
        ObjectiveVector(other, std::numeric_limits<double>::quiet_NaN()));
    model.EvaluateBatch(subq, confs, &reused);
    ASSERT_EQ(reused.size(), confs.size());
    for (size_t i = 0; i < confs.size(); ++i) {
      EXPECT_EQ(fresh[i].size(), static_cast<size_t>(k));
      EXPECT_TRUE(SameBits(reused[i], fresh[i]))
          << "k " << k << " subq " << subq << " row " << i;
    }
  }
}

TEST(AnalyticSubQModelTest, BatchRowsAreWrittenInPlace) {
  Fixture fx;
  for (const int k : {2, 3}) {
    AnalyticSubQModel model(&fx.q, fx.cluster, fx.cost);
    model.set_num_objectives(k);
    ExpectReusedOutMatchesFresh(model, k);
  }
}

TEST(LearnedSubQModelTest, BatchRowsAreWrittenInPlace) {
  Fixture fx;
  BootstrapOptions bo;
  bo.samples_per_query = 12;
  bo.hidden = {16, 8};
  bo.epochs = 10;
  auto reg = FitSubQRegressor({&fx.q}, fx.cluster, fx.cost, PriceBook(), bo);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  for (const int k : {2, 3}) {
    LearnedSubQModel model(&fx.q, fx.cluster, fx.cost, &*reg);
    model.set_num_objectives(k);
    ExpectReusedOutMatchesFresh(model, k);
  }
}

}  // namespace
}  // namespace sparkopt
