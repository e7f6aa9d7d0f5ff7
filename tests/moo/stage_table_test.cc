/// \file stage_table_test.cc
/// \brief The stage table behind both compile-time models' EvaluateBatch:
/// every row it answers equals the direct Evaluate bit for bit, on every
/// TPC-H and TPC-DS query, past its slice cap, and from four threads at
/// once.

#include "model/stage_table.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "moo/objective_models.h"
#include "params/sampler.h"
#include "service/model_bootstrap.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

bool SameBits(const ObjectiveVector& a, const ObjectiveVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> Join(const std::vector<double>& theta_c,
                         const std::vector<double>& slice) {
  std::vector<double> conf = theta_c;
  for (size_t i = StageTable::kSliceBegin; i < kNumSparkParams; ++i) {
    conf[i] = slice[i];
  }
  return conf;
}

struct Workload {
  std::vector<TableStats> tpch_catalog = TpchCatalog();
  std::vector<TableStats> tpcds_catalog = TpcdsCatalog();
  std::vector<Query> queries;
  ClusterSpec cluster;
  CostModelParams cost;
  /// 16 theta_c confs; default parallelism alternates between the ends of
  /// its range, so scan stages change partition count across theta_c.
  std::vector<std::vector<double>> theta_c;
  /// 16 LHS slices plus two that differ only in raw shuffle_partitions,
  /// which both decode to 200.
  std::vector<std::vector<double>> slices;
  Regressor regressor;

  Workload() {
    queries = TpchBenchmark(&tpch_catalog);
    for (Query& q : TpcdsBenchmark(&tpcds_catalog)) {
      queries.push_back(std::move(q));
    }
    const ParamSpec& k4 = SparkParamSpace().spec(kDefaultParallelism);
    Rng rng(41);
    theta_c = SampleLatinHypercube(SparkParamSpace(), 16, &rng);
    for (size_t j = 0; j < theta_c.size(); ++j) {
      theta_c[j][kDefaultParallelism] = j % 2 == 0 ? k4.lo : k4.hi;
    }
    slices = SampleLatinHypercube(SparkParamSpace(), 16, &rng);
    for (const double partitions : {200.2, 200.8}) {
      slices.push_back(slices[0]);
      slices.back()[kShufflePartitions] = partitions;
    }
    BootstrapOptions bo;
    bo.samples_per_query = 12;
    bo.hidden = {16, 8};
    bo.epochs = 20;
    bo.seed = 7;
    auto fit = FitSubQRegressor({&queries[2], &queries[8], &queries[30]},
                                cluster, cost, PriceBook(), bo);
    EXPECT_TRUE(fit.ok()) << fit.status().ToString();
    if (fit.ok()) regressor = std::move(*fit);
  }
};

const Workload& TheWorkload() {
  static const Workload w;
  return w;
}

// Every (subQ, theta_c) batch over all slices, twice: the first call of a
// subQ builds its entries, every later call reads them.
void ExpectBatchesMatchEvaluate(const SubQObjectiveModel& model,
                                const std::string& name) {
  const Workload& w = TheWorkload();
  for (int subq = 0; subq < model.num_subqs(); ++subq) {
    for (const auto& c : w.theta_c) {
      std::vector<std::vector<double>> confs;
      std::vector<ObjectiveVector> want;
      for (const auto& s : w.slices) {
        confs.push_back(Join(c, s));
        want.push_back(model.Evaluate(subq, confs.back()));
      }
      for (const char* call : {"first", "repeated"}) {
        std::vector<ObjectiveVector> rows;
        const size_t before = model.eval_count();
        model.EvaluateBatch(subq, confs, &rows);
        ASSERT_EQ(model.eval_count() - before, confs.size());
        ASSERT_EQ(rows.size(), confs.size());
        for (size_t i = 0; i < confs.size(); ++i) {
          ASSERT_TRUE(SameBits(rows[i], want[i]))
              << name << " subq " << subq << " row " << i << " (" << call
              << " call)";
        }
      }
    }
  }
}

// Every query, in shards (query i in shard i % kShards) that ctest runs
// side by side, which keeps each under the sanitizers' time limits.
constexpr size_t kShards = 4;

class StageTableShardTest : public ::testing::TestWithParam<size_t> {
 protected:
  std::vector<const Query*> Shard() const {
    std::vector<const Query*> out;
    const auto& queries = TheWorkload().queries;
    for (size_t i = GetParam(); i < queries.size(); i += kShards) {
      out.push_back(&queries[i]);
    }
    return out;
  }
};

TEST_P(StageTableShardTest, AnalyticRowsMatchEvaluate) {
  const Workload& w = TheWorkload();
  for (const Query* q : Shard()) {
    for (const int k : {2, 3}) {
      AnalyticSubQModel model(q, w.cluster, w.cost);
      model.set_num_objectives(k);
      ExpectBatchesMatchEvaluate(model, q->name + " k=" + std::to_string(k));
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(StageTableShardTest, LearnedRowsMatchEvaluate) {
  const Workload& w = TheWorkload();
  ASSERT_TRUE(w.regressor.trained());
  for (const Query* q : Shard()) {
    const LearnedSubQModel model(q, w.cluster, w.cost, &w.regressor);
    ExpectBatchesMatchEvaluate(model, q->name);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(EveryQuery, StageTableShardTest,
                         ::testing::Range<size_t>(0, kShards));

// The sweep above must move scan partition counts across theta_c, and
// the two shuffle_partitions slices must be distinct table slices that
// one decoded value would merge.
TEST(StageTableTest, SweepMovesScanPartitionsAndSplitsRawSlices) {
  const Workload& w = TheWorkload();
  int moved = 0;
  for (const Query& q : w.queries) {
    const SubQEvaluator eval(&q, w.cluster, w.cost);
    for (int subq = 0; subq < eval.num_subqs(); ++subq) {
      const auto& s = w.slices[0];
      const QueryStage lo =
          eval.BuildStage(subq, DecodeContext(Join(w.theta_c[0], s)),
                          DecodePlan(s), DecodeStage(s),
                          CardinalitySource::kEstimated);
      const QueryStage hi =
          eval.BuildStage(subq, DecodeContext(Join(w.theta_c[1], s)),
                          DecodePlan(s), DecodeStage(s),
                          CardinalitySource::kEstimated);
      if (lo.is_scan_stage && lo.num_partitions != hi.num_partitions) {
        ++moved;
      }
    }
  }
  EXPECT_GT(moved, 0);

  const size_t n = w.slices.size();
  EXPECT_EQ(DecodePlan(w.slices[n - 2]).shuffle_partitions,
            DecodePlan(w.slices[n - 1]).shuffle_partitions);
  const SubQEvaluator eval(&w.queries[0], w.cluster, w.cost);
  StageTable table(&eval, /*with_features=*/true);
  std::vector<StageTable::Row> rows;
  table.Resolve(0, {Join(w.theta_c[0], w.slices[n - 2]),
                    Join(w.theta_c[0], w.slices[n - 1])},
                &rows);
  EXPECT_EQ(table.num_slices(), 2);
  ASSERT_NE(rows[0].slice, nullptr);
  ASSERT_NE(rows[1].slice, nullptr);
  EXPECT_NE(rows[0].slice->features, rows[1].slice->features);
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Field by field, doubles by their bits: the equality under which rows
// share an entry.
bool SameEntry(const StageTable::Entry& a, const StageTable::Entry& b) {
  const StageScalars& x = a.stage;
  const StageScalars& y = b.stage;
  if (x.id != y.id || x.subq_id != y.subq_id ||
      x.num_partitions != y.num_partitions ||
      !SameDouble(x.input_rows, y.input_rows) ||
      !SameDouble(x.input_bytes, y.input_bytes) ||
      !SameDouble(x.output_rows, y.output_rows) ||
      !SameDouble(x.output_bytes, y.output_bytes) ||
      !SameDouble(x.shuffle_read_bytes, y.shuffle_read_bytes) ||
      !SameDouble(x.broadcast_bytes, y.broadcast_bytes) ||
      x.is_scan_stage != y.is_scan_stage ||
      x.exchanges_output != y.exchanges_output ||
      !SameDouble(x.cpu_work, y.cpu_work) ||
      !SameDouble(x.sort_work, y.sort_work) || x.join_algo != y.join_algo ||
      x.has_join != y.has_join || !SameDouble(a.skew, b.skew) ||
      a.num_runs != b.num_runs) {
    return false;
  }
  for (int r = 0; r < a.num_runs; ++r) {
    if (a.runs[r].count != b.runs[r].count ||
        !SameDouble(a.runs[r].bytes, b.runs[r].bytes)) {
      return false;
    }
  }
  return true;
}

// Rows of one subQ share an entry, the canonical copy of their stage,
// exactly when their stage scalars, skew and partition runs are equal bit
// for bit. Slices that differ only in the file split size (s8) build the
// same stage on every subQ: a scan stage reads s8 only through its row's
// partition count.
TEST(StageTableTest, EqualStagesShareACanonicalId) {
  const Workload& w = TheWorkload();
  size_t pairs = 0, shared = 0;
  for (const Query* q : {&w.queries[2], &w.queries[8], &w.queries[30]}) {
    const SubQEvaluator eval(q, w.cluster, w.cost);
    StageTable table(&eval, /*with_features=*/false);
    std::vector<std::vector<double>> confs;
    for (const auto& s : w.slices) confs.push_back(Join(w.theta_c[0], s));
    for (const double s8 : {16.0, 64.0, 500.0}) {
      confs.push_back(confs[0]);
      confs.back()[kMaxPartitionBytesMb] = s8;
    }
    for (int subq = 0; subq < eval.num_subqs(); ++subq) {
      std::vector<StageTable::Row> rows;
      table.Resolve(subq, confs, &rows);
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_NE(rows[i].entry, nullptr) << q->name << " row " << i;
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        for (size_t j = i + 1; j < rows.size(); ++j) {
          const bool same_entry = rows[i].entry == rows[j].entry;
          EXPECT_EQ(same_entry, SameEntry(*rows[i].entry, *rows[j].entry))
              << q->name << " subq " << subq << " rows " << i << ", " << j;
          ++pairs;
          shared += same_entry;
        }
      }
      for (size_t i = confs.size() - 3; i < confs.size(); ++i) {
        EXPECT_EQ(rows[i].entry, rows[0].entry)
            << q->name << " subq " << subq << " s8 variant " << i;
      }
    }
  }
  EXPECT_GT(shared, 0u);
  EXPECT_LT(shared, pairs);
}

// Past kMaxSlices, rows take the direct path and stay equal.
TEST(StageTableTest, StopsAtItsCapAndRowsStillMatch) {
  const Workload& w = TheWorkload();
  const Query& q9 = w.queries[8];
  Rng rng(43);
  const auto confs = SampleLatinHypercube(SparkParamSpace(), 600, &rng);

  const SubQEvaluator eval(&q9, w.cluster, w.cost);
  StageTable table(&eval, /*with_features=*/false);
  std::vector<StageTable::Row> rows;
  table.Resolve(0, confs, &rows);
  EXPECT_EQ(table.num_slices(), StageTable::kMaxSlices);
  for (size_t i = 0; i < confs.size(); ++i) {
    EXPECT_EQ(rows[i].entry == nullptr,
              i >= static_cast<size_t>(StageTable::kMaxSlices))
        << "row " << i;
  }

  const AnalyticSubQModel analytic(&q9, w.cluster, w.cost);
  const LearnedSubQModel learned(&q9, w.cluster, w.cost, &w.regressor);
  for (const SubQObjectiveModel* model :
       {static_cast<const SubQObjectiveModel*>(&analytic),
        static_cast<const SubQObjectiveModel*>(&learned)}) {
    for (int subq = 0; subq < model->num_subqs(); ++subq) {
      std::vector<ObjectiveVector> out;
      model->EvaluateBatch(subq, confs, &out);
      ASSERT_EQ(out.size(), confs.size());
      for (size_t i = 0; i < confs.size(); ++i) {
        ASSERT_TRUE(SameBits(out[i], model->Evaluate(subq, confs[i])))
            << "subq " << subq << " row " << i;
      }
    }
  }
}

// Four threads share one model and race to build the same entries; each
// sees the bits one thread sees alone.
TEST(StageTableTest, FourThreadsGiveTheBitsOfOne) {
  const Workload& w = TheWorkload();
  const Query& q9 = w.queries[8];
  std::vector<std::vector<std::vector<double>>> batches;
  for (const auto& c : w.theta_c) {
    batches.emplace_back();
    for (const auto& s : w.slices) batches.back().push_back(Join(c, s));
  }
  const auto run = [&](const SubQObjectiveModel& model, size_t start) {
    const int m = model.num_subqs();
    std::vector<std::vector<ObjectiveVector>> out(batches.size() * m);
    for (size_t n = 0; n < out.size(); ++n) {
      const size_t task = (start + n) % out.size();
      model.EvaluateBatch(static_cast<int>(task % m), batches[task / m],
                          &out[task]);
    }
    return out;
  };
  const auto check = [&](const SubQObjectiveModel& alone,
                         const SubQObjectiveModel& shared) {
    const auto want = run(alone, 0);
    std::vector<std::vector<std::vector<ObjectiveVector>>> got(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < got.size(); ++t) {
      threads.emplace_back(
          [&, t] { got[t] = run(shared, t * want.size() / got.size()); });
    }
    for (auto& th : threads) th.join();
    for (const auto& g : got) {
      ASSERT_EQ(g.size(), want.size());
      for (size_t task = 0; task < want.size(); ++task) {
        ASSERT_EQ(g[task].size(), want[task].size());
        for (size_t i = 0; i < want[task].size(); ++i) {
          ASSERT_TRUE(SameBits(g[task][i], want[task][i]))
              << "task " << task << " row " << i;
        }
      }
    }
  };
  check(AnalyticSubQModel(&q9, w.cluster, w.cost),
        AnalyticSubQModel(&q9, w.cluster, w.cost));
  check(LearnedSubQModel(&q9, w.cluster, w.cost, &w.regressor),
        LearnedSubQModel(&q9, w.cluster, w.cost, &w.regressor));
}

}  // namespace
}  // namespace sparkopt
