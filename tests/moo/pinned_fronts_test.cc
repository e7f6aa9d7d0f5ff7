/// \file pinned_fronts_test.cc
/// \brief Pins the exact bits of the fronts three weight- and
/// archive-driven solvers return, each at two and three objectives: the
/// WS and PF baselines on fine-grained FlatProblems over a few TPC-H
/// queries' analytic models, and HMOOC2 (weighted-sum DAG aggregation).
/// Every objective, conf and per-subQ conf of every front point is hashed
/// in front order, so a change to a weight ladder, its enumeration order,
/// or the sequence PF subdivides changes a hash.
///
/// HMOOC2 runs on a synthetic model. Under one theta_c every analytic
/// subQ's Pareto set is a single objective vector (cost follows latency),
/// so every weight picks the same entry there and the ladder would go
/// unpinned. HMOOC1 and HMOOC3 are also pinned on both compile-time
/// models, the analytic one and a learned one, so the rows a solve asks
/// those models for are pinned too.
///
/// The expected hashes were recorded on x86-64 with glibc 2.36's libm; a
/// libm whose pow/log/exp round differently changes them. Re-record them
/// only from a commit known to keep the bits.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "moo/baselines.h"
#include "moo/hmooc.h"
#include "moo/objective_models.h"
#include "params/spark_params.h"
#include "service/model_bootstrap.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

constexpr int kQueries[] = {3, 5, 9};

class FrontHash {
 public:
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h_ = HashCombine(h_, bits);
    ++n_;
  }
  void Add(const std::vector<double>& v) {
    for (const double d : v) Add(d);
  }
  void Add(const MooRunResult& r) {
    h_ = HashCombine(h_, r.pareto.size());
    for (const MooSolution& s : r.pareto) {
      Add(s.objectives);
      Add(s.conf);
      for (const auto& c : s.per_subq_conf) Add(c);
    }
  }
  uint64_t value() const { return h_; }
  uint64_t count() const { return n_; }

 private:
  uint64_t h_ = 0xF207B175ULL;
  uint64_t n_ = 0;
};

std::string Hex(uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

// Runs `solve(model)` on each query at k = 2 and k = 3 and hashes the
// fronts in that order.
template <typename Solve>
FrontHash HashFronts(Solve solve) {
  const std::vector<TableStats> catalog = TpchCatalog(10);
  const ClusterSpec cluster;
  const CostModelParams cost;
  FrontHash h;
  for (const int qid : kQueries) {
    const Query q = *MakeTpchQuery(qid, &catalog);
    for (const int k : {2, 3}) {
      AnalyticSubQModel model(&q, cluster, cost);
      model.set_num_objectives(k);
      h.Add(solve(model));
    }
  }
  return h;
}

TEST(PinnedFrontBitsTest, WeightedSumBaseline) {
  const FrontHash h = HashFronts([](const AnalyticSubQModel& model) {
    const FlatProblem flat(&model, /*fine_grained=*/true);
    WsOptions o;
    o.samples = 300;
    o.seed = 11;
    return SolveWeightedSum(flat, flat, o);
  });
  EXPECT_EQ(h.count(), 15892u);
  EXPECT_EQ(h.value(), 0x8461d8f1f90ad854ULL) << Hex(h.value());
}

TEST(PinnedFrontBitsTest, ProgressiveFrontier) {
  const FrontHash h = HashFronts([](const AnalyticSubQModel& model) {
    const FlatProblem flat(&model, /*fine_grained=*/true);
    PfOptions o;
    o.inner_samples = 80;
    o.refine_steps = 10;
    o.seed = 13;
    return SolveProgressiveFrontier(flat, flat, o);
  });
  EXPECT_EQ(h.count(), 10229u);
  EXPECT_EQ(h.value(), 0xb3bffca2c7425af9ULL) << Hex(h.value());
}

// Per-subQ objectives that trade off inside a theta_p pool: latency falls
// and cost rises with the shuffle partitions, the advisory partition size
// moves latency and IO against cost, and each subQ has its own scale, so
// both the weight ladder and per-subQ normalization change the picks.
class TradeoffModel : public SubQObjectiveModel {
 public:
  TradeoffModel(int subqs, int k) : m_(subqs), k_(k) {}
  int num_subqs() const override { return m_; }
  int num_objectives() const override { return k_; }
  ObjectiveVector Evaluate(int subq,
                           const std::vector<double>& conf) const override {
    evals_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<double> u = SparkParamSpace().Normalize(conf);
    const double c = 0.5 * (u[kExecutorCores] + u[kExecutorInstances]);
    const double p = u[kShufflePartitions];
    const double s = u[kAdvisoryPartitionSizeMb];
    const double scale = 1.0 + 3.0 * subq;
    ObjectiveVector f = {
        scale * (1.2 - c) * (1.0 + (1.0 - p) * (1.0 - p) + 0.2 * s),
        (0.3 + c) * (0.5 + p * p + 0.3 * (1.0 - s)) / scale};
    if (k_ == 3) f.push_back(0.5 * scale * (1.0 + s) * (1.5 - 0.5 * p));
    return f;
  }
  size_t eval_count() const override {
    return evals_.load(std::memory_order_relaxed);
  }

 private:
  int m_;
  int k_;
  mutable std::atomic<size_t> evals_{0};
};

TEST(PinnedFrontBitsTest, Hmooc2WithAndWithoutPerSubQNormalization) {
  // Indexed by `normalize`.
  const uint64_t kExpected[2] = {0xe13b7d83f414649fULL,
                                 0xcb8448e7dcba2b31ULL};
  const uint64_t kCount[2] = {96027u, 97289u};
  for (const bool normalize : {true, false}) {
    FrontHash h;
    for (const int subqs : {2, 5, 9}) {
      for (const int k : {2, 3}) {
        const TradeoffModel model(subqs, k);
        HmoocOptions o;
        o.theta_c_samples = 24;
        o.clusters = 6;
        o.theta_p_samples = 32;
        o.enriched_samples = 8;
        o.aggregation = DagAggregation::kWeightedSum;
        o.hmooc2_normalize_per_subq = normalize;
        o.num_threads = 1;
        o.seed = 7;
        h.Add(HmoocSolver(&model, o).Solve());
      }
    }
    EXPECT_EQ(h.count(), kCount[normalize]) << "normalize=" << normalize;
    EXPECT_EQ(h.value(), kExpected[normalize])
        << "normalize=" << normalize << " " << Hex(h.value());
  }
}

// TPC-H Q3, Q5 and Q9 and TPC-DS Q18 at SF10, each solved by HMOOC1 and
// HMOOC3 at k = 2 and 3 with a small budget, hashed in that order.
// `learned` swaps the analytic model for a learned one over a regressor
// bootstrapped as PinnedBitsTest's is. Fronts are bitwise identical at
// any `num_threads`, so the hash is too.
FrontHash HashHmoocFronts(bool learned, int num_threads) {
  const std::vector<TableStats> tpch = TpchCatalog(10);
  const std::vector<TableStats> tpcds = TpcdsCatalog(10);
  const ClusterSpec cluster;
  const CostModelParams cost;
  std::vector<Query> queries;
  for (const int qid : kQueries) queries.push_back(*MakeTpchQuery(qid, &tpch));
  queries.push_back(*MakeTpcdsQuery(18, &tpcds));
  std::vector<const Query*> train;
  for (const Query& q : queries) train.push_back(&q);
  BootstrapOptions bo;
  bo.samples_per_query = 12;
  bo.hidden = {16, 8};
  bo.epochs = 20;
  bo.seed = 7;
  Regressor reg;
  if (learned) {
    auto fit = FitSubQRegressor(train, cluster, cost, PriceBook(), bo);
    EXPECT_TRUE(fit.ok()) << fit.status().ToString();
    if (fit.ok()) reg = std::move(*fit);
  }
  FrontHash h;
  for (const Query& q : queries) {
    for (const DagAggregation agg :
         {DagAggregation::kDivideAndConquer, DagAggregation::kBoundary}) {
      for (const int k : {2, 3}) {
        AnalyticSubQModel analytic(&q, cluster, cost);
        LearnedSubQModel learned_model(&q, cluster, cost, &reg);
        analytic.set_num_objectives(k);
        learned_model.set_num_objectives(k);
        HmoocOptions o;
        o.theta_c_samples = 16;
        o.clusters = 4;
        o.theta_p_samples = 24;
        o.enriched_samples = 8;
        o.aggregation = agg;
        o.num_threads = num_threads;
        o.seed = 7;
        const SubQObjectiveModel* model = &analytic;
        if (learned) model = &learned_model;
        h.Add(HmoocSolver(model, o).Solve());
      }
    }
  }
  return h;
}

TEST(PinnedFrontBitsTest, HmoocOnAnalyticModel) {
  for (const int threads : {1, 4}) {
    const FrontHash h = HashHmoocFronts(/*learned=*/false, threads);
    EXPECT_EQ(h.count(), 31980u) << threads << " threads";
    EXPECT_EQ(h.value(), 0xea0f7aca6fb59ee8ULL)
        << Hex(h.value()) << " at " << threads << " threads";
  }
}

TEST(PinnedFrontBitsTest, HmoocOnLearnedModel) {
  for (const int threads : {1, 4}) {
    const FrontHash h = HashHmoocFronts(/*learned=*/true, threads);
    EXPECT_EQ(h.count(), 1321957u) << threads << " threads";
    EXPECT_EQ(h.value(), 0x992efc4bd4ad8e04ULL)
        << Hex(h.value()) << " at " << threads << " threads";
  }
}

}  // namespace
}  // namespace sparkopt
