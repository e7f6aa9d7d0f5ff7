#include "moo/objective_models.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <thread>

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

// Batches whose rows alternate two theta_c over repeated slices. theta_c
// A has the lowest default parallelism (k4), so a scan stage's partition
// count follows s8 under it, and B the highest. The 11 slices are six LHS
// slices, an exact repeat of the first, and four copies of the first that
// differ only in s8: one stage with four partition counts under A. The
// batches put A and B rows in runs of 1, 2, 3 and 11 rows; with an odd
// slice count every slice meets both theta_c in each batch.
std::vector<std::vector<std::vector<double>>> AlternatingBatches() {
  Rng rng(23);
  auto theta_c = SampleLatinHypercube(SparkParamSpace(), 2, &rng);
  const ParamSpec& k4 = SparkParamSpace().spec(kDefaultParallelism);
  theta_c[0][kDefaultParallelism] = k4.lo;
  theta_c[1][kDefaultParallelism] = k4.hi;
  auto slices = SampleLatinHypercube(SparkParamSpace(), 6, &rng);
  slices.push_back(slices[0]);
  for (const double s8 : {16.0, 40.0, 100.0, 500.0}) {
    slices.push_back(slices[0]);
    slices.back()[kMaxPartitionBytesMb] = s8;
  }
  std::vector<std::vector<std::vector<double>>> batches;
  for (const size_t run : {size_t{1}, size_t{2}, size_t{3}, slices.size()}) {
    batches.emplace_back();
    for (size_t r = 0; r < 4 * slices.size(); ++r) {
      std::vector<double> conf = slices[r % slices.size()];
      const auto& c = theta_c[(r / run) % 2];
      std::copy_n(c.begin(), kAdvisoryPartitionSizeMb, conf.begin());
      batches.back().push_back(std::move(conf));
    }
  }
  return batches;
}

void ExpectAlternatingRowsMatchEvaluate(const SubQObjectiveModel& model,
                                        const char* name) {
  for (const auto& batch : AlternatingBatches()) {
    for (int subq = 0; subq < model.num_subqs(); ++subq) {
      std::vector<ObjectiveVector> rows;
      model.EvaluateBatch(subq, batch, &rows);
      ASSERT_EQ(rows.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(SameBits(rows[i], model.Evaluate(subq, batch[i])))
            << name << " subq " << subq << " row " << i << " of "
            << batch.size();
      }
    }
  }
}

TEST(AnalyticSubQModelTest, AlternatingThetaCRowsMatchEvaluateBitwise) {
  Fixture fx;
  for (const int k : {2, 3}) {
    AnalyticSubQModel model(&fx.q, fx.cluster, fx.cost);
    model.set_num_objectives(k);
    ExpectAlternatingRowsMatchEvaluate(model, k == 2 ? "k=2" : "k=3");
  }
  // The s8 copies must move a scan stage's partition count under theta_c
  // A, or the batches would not tell partition counts apart.
  SubQEvaluator eval(&fx.q, fx.cluster, fx.cost);
  const auto batch = AlternatingBatches().back();
  bool moved = false;
  for (int subq = 0; subq < eval.num_subqs(); ++subq) {
    const auto stage = [&](size_t row) {
      const auto& conf = batch[row];
      return eval.BuildStage(subq, DecodeContext(conf), DecodePlan(conf),
                             DecodeStage(conf),
                             CardinalitySource::kEstimated);
    };
    const QueryStage first = stage(0);
    moved |= first.is_scan_stage &&
             first.num_partitions != stage(batch.size() / 4 - 1)
                                         .num_partitions;
  }
  EXPECT_TRUE(moved);
}

TEST(LearnedSubQModelTest, AlternatingThetaCRowsMatchEvaluateBitwise) {
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
    ExpectAlternatingRowsMatchEvaluate(model, k == 2 ? "k=2" : "k=3");
  }
}

// Four threads share one analytic model, each with its own per-call
// state, and race to build the same stage-table entries; every row they
// get equals Evaluate.
TEST(AnalyticSubQModelTest, FourThreadsSharingOneModelMatchEvaluate) {
  Fixture fx;
  const AnalyticSubQModel model(&fx.q, fx.cluster, fx.cost);
  const auto batches = AlternatingBatches();
  const int m = model.num_subqs();
  const size_t tasks = batches.size() * m;
  std::vector<std::vector<ObjectiveVector>> want(tasks);
  {
    const AnalyticSubQModel reference(&fx.q, fx.cluster, fx.cost);
    for (size_t t = 0; t < tasks; ++t) {
      for (const auto& conf : batches[t / m]) {
        want[t].push_back(reference.Evaluate(static_cast<int>(t % m), conf));
      }
    }
  }
  std::vector<std::vector<std::vector<ObjectiveVector>>> got(4);
  std::vector<std::thread> threads;
  for (size_t th = 0; th < got.size(); ++th) {
    threads.emplace_back([&, th] {
      got[th].resize(tasks);
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t n = 0; n < tasks; ++n) {
          const size_t t = (th * tasks / got.size() + n) % tasks;
          model.EvaluateBatch(static_cast<int>(t % m), batches[t / m],
                              &got[th][t]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t th = 0; th < got.size(); ++th) {
    for (size_t t = 0; t < tasks; ++t) {
      ASSERT_EQ(got[th][t].size(), want[t].size());
      for (size_t i = 0; i < want[t].size(); ++i) {
        ASSERT_TRUE(SameBits(got[th][t][i], want[t][i]))
            << "thread " << th << " task " << t << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace sparkopt
