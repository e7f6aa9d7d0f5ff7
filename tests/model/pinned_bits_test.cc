/// \file pinned_bits_test.cc
/// \brief Pins the exact bits of the outputs that partition sizes feed:
/// analytic subQ rows, learned subQ rows, the beta features and simulated
/// stage records, over every TPC-H and TPC-DS query. A change to how
/// stages carry their partition sizes must leave every hash unchanged.
///
/// The expected hashes were recorded on x86-64 with glibc 2.36's libm; a
/// libm whose pow/log/exp round differently changes them. Re-record them
/// only from a commit known to keep the bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ios>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/simulator.h"
#include "model/features.h"
#include "model/subq_evaluator.h"
#include "moo/objective_models.h"
#include "params/sampler.h"
#include "physical/partition_oracle.h"
#include "physical/physical_plan.h"
#include "service/model_bootstrap.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

// Every TPC-H and TPC-DS query with 8 seeded LHS confs.
struct Sweep {
  std::vector<TableStats> tpch_catalog = TpchCatalog();
  std::vector<TableStats> tpcds_catalog = TpcdsCatalog();
  std::vector<Query> queries;
  std::vector<std::vector<double>> confs;
  ClusterSpec cluster;
  CostModelParams cost;

  Sweep() {
    queries = TpchBenchmark(&tpch_catalog);
    for (Query& q : TpcdsBenchmark(&tpcds_catalog)) {
      queries.push_back(std::move(q));
    }
    Rng rng(29);
    confs = SampleLatinHypercube(SparkParamSpace(), 8, &rng);
  }
};

const Sweep& TheSweep() {
  static const Sweep sweep;
  return sweep;
}

class BitHash {
 public:
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(uint64_t v) {
    h_ = HashCombine(h_, v);
    ++n_;
  }
  uint64_t value() const { return h_; }
  uint64_t count() const { return n_; }

 private:
  uint64_t h_ = 0x5EEDB175ULL;
  uint64_t n_ = 0;
};

std::string Hex(uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

TEST(PinnedBitsTest, EvaluatorRowsUnderBothCardinalitySources) {
  const Sweep& sw = TheSweep();
  BitHash h;
  for (const Query& q : sw.queries) {
    const SubQEvaluator eval(&q, sw.cluster, sw.cost);
    for (const auto& conf : sw.confs) {
      const ContextParams tc = DecodeContext(conf);
      const PlanParams tp = DecodePlan(conf);
      const StageParams ts = DecodeStage(conf);
      for (int s = 0; s < eval.num_subqs(); ++s) {
        for (const CardinalitySource source :
             {CardinalitySource::kEstimated, CardinalitySource::kTrue}) {
          const SubQObjectives o = eval.Evaluate(s, tc, tp, ts, source);
          h.Add(o.analytical_latency);
          h.Add(o.io_bytes);
          h.Add(o.cost);
        }
      }
    }
  }
  EXPECT_EQ(h.count(), 88272u);
  EXPECT_EQ(h.value(), 0x2500e2c020b2e719ULL) << Hex(h.value());
}

TEST(PinnedBitsTest, AnalyticModelRowsAtTwoAndThreeObjectives) {
  const Sweep& sw = TheSweep();
  BitHash h;
  for (const Query& q : sw.queries) {
    for (const int k : {2, 3}) {
      AnalyticSubQModel model(&q, sw.cluster, sw.cost);
      model.set_num_objectives(k);
      for (int s = 0; s < model.num_subqs(); ++s) {
        for (const auto& conf : sw.confs) {
          for (const double v : model.Evaluate(s, conf)) h.Add(v);
        }
      }
    }
  }
  EXPECT_EQ(h.count(), 73560u);
  EXPECT_EQ(h.value(), 0xcf64ef03ca9b5959ULL) << Hex(h.value());
}

TEST(PinnedBitsTest, LearnedModelBatchRows) {
  const Sweep& sw = TheSweep();
  BootstrapOptions bo;
  bo.samples_per_query = 12;
  bo.hidden = {16, 8};
  bo.epochs = 20;
  bo.seed = 7;
  const std::vector<const Query*> train = {&sw.queries[2], &sw.queries[8],
                                           &sw.queries[30]};
  auto reg = FitSubQRegressor(train, sw.cluster, sw.cost, PriceBook(), bo);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  BitHash h;
  std::vector<ObjectiveVector> rows;
  for (const Query& q : sw.queries) {
    const LearnedSubQModel model(&q, sw.cluster, sw.cost, &*reg);
    for (int s = 0; s < model.num_subqs(); ++s) {
      model.EvaluateBatch(s, sw.confs, &rows);
      for (const auto& row : rows) {
        for (const double v : row) h.Add(v);
      }
    }
  }
  EXPECT_EQ(h.count(), 29424u);
  EXPECT_EQ(h.value(), 0x374287f8fee8b55fULL) << Hex(h.value());
}

// The beta features of the runtime targets, through the pooled features
// of all true-cardinality stages: skewed stages give non-zero ratios.
TEST(PinnedBitsTest, BetaFeaturesOfPooledStages) {
  const Sweep& sw = TheSweep();
  BitHash h;
  for (const Query& q : sw.queries) {
    const SubQEvaluator eval(&q, sw.cluster, sw.cost);
    for (const auto& conf : sw.confs) {
      std::vector<QueryStage> stages;
      for (int s = 0; s < eval.num_subqs(); ++s) {
        stages.push_back(eval.BuildStage(s, DecodeContext(conf),
                                         DecodePlan(conf), DecodeStage(conf),
                                         CardinalitySource::kTrue));
      }
      for (const double v :
           CollapsedPlanFeatures(q.plan, stages, conf, /*gamma=*/{})) {
        h.Add(v);
      }
    }
  }
  EXPECT_EQ(h.count(), 75392u);
  EXPECT_EQ(h.value(), 0xe309332ddf97a4d1ULL) << Hex(h.value());
}

// The simulator runs the planner's plans task by task with noise on, so
// the per-task byte order and the task index keying the noise both show.
TEST(PinnedBitsTest, SimulatorStageRecordsWithNoise) {
  const Sweep& sw = TheSweep();
  const Simulator sim(sw.cluster, sw.cost);
  ASSERT_GT(sw.cost.noise_sigma, 0.0);
  BitHash h;
  for (size_t qi = 0; qi < sw.queries.size(); ++qi) {
    const Query& q = sw.queries[qi];
    const PhysicalPlanner planner(&q.plan, q.plan.DecomposeSubQueries());
    for (size_t c = 0; c < sw.confs.size(); ++c) {
      const ContextParams tc = DecodeContext(sw.confs[c]);
      const auto plan =
          planner.Plan(tc, {DecodePlan(sw.confs[c])},
                       {DecodeStage(sw.confs[c])}, CardinalitySource::kTrue);
      ASSERT_TRUE(plan.ok()) << q.name;
      const QueryExecution exec =
          sim.RunAll(*plan, tc, /*noise_seed=*/HashCombine(qi, c));
      for (const StageExecution& se : exec.stages) {
        h.Add(static_cast<uint64_t>(se.num_tasks));
        h.Add(se.task_time_sum);
        h.Add(se.end);
      }
    }
  }
  EXPECT_EQ(h.count(), 29271u);
  EXPECT_EQ(h.value(), 0x601c48b7710ba077ULL) << Hex(h.value());
}

// The hashes above pin every branch of the three partition rules only if
// the sweep reaches them. Each non-scan stage is replayed through the
// reference rules, which must also reproduce its task count.
TEST(PinnedBitsTest, SweepReachesEveryRuleBranch) {
  const Sweep& sw = TheSweep();
  int skewed = 0, split = 0, coalesced = 0;
  for (const Query& q : sw.queries) {
    const SubQEvaluator eval(&q, sw.cluster, sw.cost);
    for (const auto& conf : sw.confs) {
      const ContextParams tc = DecodeContext(conf);
      const PlanParams tp = DecodePlan(conf);
      const StageParams ts = DecodeStage(conf);
      for (int s = 0; s < eval.num_subqs(); ++s) {
        const QueryStage st =
            eval.BuildStage(s, tc, tp, ts, CardinalitySource::kEstimated);
        double skew = 0.0;
        for (int id : st.op_ids) {
          skew = std::max(skew, q.plan.op(id).shuffle_skew);
        }
        if (skew > 0.0) ++skewed;
        if (st.is_scan_stage) continue;
        const auto sizes = oracle::SkewedPartitionSizes(
            st.input_bytes, std::min(std::max(1, tp.shuffle_partitions), 4096),
            skew);
        auto after_split = sizes;
        if (st.has_join) {
          after_split = oracle::ApplySkewSplit(
              sizes, tp.skewed_partition_threshold_mb,
              tp.skewed_partition_factor, tp.advisory_partition_size_mb);
        }
        if (after_split.size() > sizes.size()) ++split;
        const auto after_coalesce = oracle::ApplyCoalesce(
            after_split, tp.advisory_partition_size_mb,
            ts.rebalance_small_factor, ts.coalesce_min_partition_size_mb);
        if (after_coalesce.size() < after_split.size()) ++coalesced;
        ASSERT_EQ(static_cast<int>(after_coalesce.size()), st.num_partitions)
            << q.name << " subq " << s;
      }
    }
  }
  EXPECT_GT(skewed, 0);
  EXPECT_GT(split, 0);
  EXPECT_GT(coalesced, 0);
}

}  // namespace
}  // namespace sparkopt
