#include "model/features.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace sparkopt {

namespace {

double Log1p(double v) { return std::log1p(std::max(v, 0.0)); }

// Offsets of the blocks in a row, in FeatureLayout's order.
constexpr int kHistogramAt = 0;
constexpr int kWlAt = kHistogramAt + FeatureLayout::kOpHistogram;
constexpr int kPredicateAt = kWlAt + FeatureLayout::kWlEmbedding;
constexpr int kCardinalityAt = kPredicateAt + FeatureLayout::kPredicateHash;
constexpr int kAlphaAt = kCardinalityAt + FeatureLayout::kCardinality;
constexpr int kBetaAt = kAlphaAt + FeatureLayout::kAlpha;
constexpr int kGammaAt = kBetaAt + FeatureLayout::kBeta;
constexpr int kMetaAt = FeatureLayout::kThetaOffset + FeatureLayout::kTheta;
constexpr int kDerivedAt = kMetaAt + FeatureLayout::kStageMeta;
static_assert(kGammaAt + FeatureLayout::kGamma == FeatureLayout::kThetaOffset);
static_assert(kDerivedAt + FeatureLayout::kDerived == FeatureLayout::Total());

// Signed pseudo-random projection of a 64-bit hash onto `dim` slots.
void ProjectHash(uint64_t h, int dim, double weight, double* out) {
  for (int i = 0; i < dim; ++i) {
    const uint64_t bit = Fnv1a(&i, sizeof(i), h);
    out[i] += (bit & 1 ? 1.0 : -1.0) * weight;
  }
}

// Two-round Weisfeiler-Lehman labels of the member operators (children
// restricted to in-stage edges keep the embedding local to the subQ).
std::vector<uint64_t> WlLabels(const LogicalPlan& plan,
                               const std::vector<int>& ops) {
  std::vector<uint64_t> label(plan.num_ops(), 0);
  std::vector<bool> member(plan.num_ops(), false);
  for (int id : ops) member[id] = true;
  for (int id : ops) {
    const auto& op = plan.op(id);
    label[id] = HashCombine(0xAB5715ULL, static_cast<uint64_t>(op.type));
  }
  for (int round = 0; round < 2; ++round) {
    std::vector<uint64_t> next = label;
    for (int id : ops) {
      uint64_t h = HashCombine(label[id], 0x9127);
      for (int c : plan.op(id).children) {
        if (c < static_cast<int>(member.size()) && member[c]) {
          h = HashCombine(h, label[c]);
        } else {
          h = HashCombine(h, 0xED6EULL);  // external-edge marker
        }
      }
      next[id] = h;
    }
    label = std::move(next);
  }
  return label;
}

}  // namespace

std::vector<double> PartitionDistributionStats(
    const std::vector<PartitionRun>& partitions) {
  std::vector<double> out(FeatureLayout::kBeta, 0.0);
  if (partitions.empty()) return out;
  // Both sums add every task's term in task order, as over the expanded
  // sizes.
  double sum = 0.0, mx = 0.0, mn = 1e300;
  int n = 0;
  for (const PartitionRun& r : partitions) {
    for (int i = 0; i < r.count; ++i) sum += r.bytes;
    mx = std::max(mx, r.bytes);
    mn = std::min(mn, r.bytes);
    n += r.count;
  }
  const double mu = sum / static_cast<double>(n);
  if (mu <= 0.0) return out;
  double var = 0.0;
  for (const PartitionRun& r : partitions) {
    const double sq = (r.bytes - mu) * (r.bytes - mu);
    for (int i = 0; i < r.count; ++i) var += sq;
  }
  const double sigma = std::sqrt(var / static_cast<double>(n));
  out[0] = sigma / mu;          // std-to-average ratio
  out[1] = (mx - mu) / mu;      // skewness ratio
  out[2] = (mx - mn) / mu;      // range-to-average ratio
  return out;
}

std::vector<double> ContentionStats(const StageExecution& se) {
  return {Log1p(se.parallel_running_tasks), Log1p(se.parallel_waiting_tasks),
          Log1p(se.finished_task_mean_s)};
}

std::vector<double> StageFeatures(
    const LogicalPlan& plan, const QueryStage& stage,
    const std::vector<double>& conf, bool use_true_cards,
    const std::vector<double>& beta, const std::vector<double>& gamma,
    bool drop_theta_p) {
  std::vector<double> f(FeatureLayout::Total(), 0.0);
  WriteSubQFeatures(plan, stage.op_ids, use_true_cards, f.data());
  // The caller built `stage` with the matching cardinality source.
  double cardinality[FeatureLayout::kCardinality];
  WriteCardinalityBlock(stage, cardinality);
  WriteStageFeatures(stage, cardinality, f.data());
  // beta: partition distribution (0 = uniform assumption).
  for (int i = 0; i < FeatureLayout::kBeta; ++i) {
    f[kBetaAt + i] = i < static_cast<int>(beta.size()) ? beta[i] : 0.0;
  }
  // gamma: contention (0 = no-contention assumption).
  for (int i = 0; i < FeatureLayout::kGamma; ++i) {
    f[kGammaAt + i] = i < static_cast<int>(gamma.size()) ? gamma[i] : 0.0;
  }
  WriteSliceFeatures(conf, drop_theta_p, f.data());
  WriteRowFeatures(MakeContextFeatures(conf, DecodeContext(conf)), stage,
                   f.data());
  return f;
}

void WriteSubQFeatures(const LogicalPlan& plan, const std::vector<int>& op_ids,
                       bool use_true_cards, double* f) {
  // ---- operator type histogram ----
  for (int id : op_ids) {
    const int t = static_cast<int>(plan.op(id).type);
    if (t < FeatureLayout::kOpHistogram) f[kHistogramAt + t] += 1.0;
  }

  // ---- WL graph embedding (GTN stand-in) ----
  const auto labels = WlLabels(plan, op_ids);
  const double inv = 1.0 / std::max<size_t>(op_ids.size(), 1);
  for (int id : op_ids) {
    ProjectHash(labels[id], FeatureLayout::kWlEmbedding, inv, f + kWlAt);
  }

  // ---- hashed predicate tokens (word-embedding stand-in) ----
  int n_tokens = 0;
  for (int id : op_ids) {
    n_tokens += static_cast<int>(plan.op(id).predicate_tokens.size());
  }
  const double tok_w = 1.0 / std::max(n_tokens, 1);
  for (int id : op_ids) {
    for (const auto& tok : plan.op(id).predicate_tokens) {
      ProjectHash(Fnv1a(tok.data(), tok.size()),
                  FeatureLayout::kPredicateHash, tok_w, f + kPredicateAt);
    }
  }

  // ---- alpha: input characteristics from leaf operators ----
  double leaf_rows = 0.0, leaf_bytes = 0.0;
  for (int id : op_ids) {
    const auto& op = plan.op(id);
    if (op.type == OpType::kScan) {
      leaf_rows += use_true_cards ? op.true_rows : op.est_rows;
      leaf_bytes += use_true_cards ? op.true_bytes : op.est_bytes;
    }
  }
  f[kAlphaAt + 0] = Log1p(leaf_rows);
  f[kAlphaAt + 1] = Log1p(leaf_bytes);

  // ---- stage metadata: operator count ----
  f[kMetaAt + 7] = Log1p(static_cast<double>(op_ids.size()));
}

void WriteSliceFeatures(const std::vector<double>& conf, bool drop_theta_p,
                        double* f) {
  const auto& space = SparkParamSpace();
  for (size_t i = kAdvisoryPartitionSizeMb; i < kNumSparkParams; ++i) {
    const ParamSpec& spec = space.spec(i);
    const bool dropped =
        drop_theta_p && spec.category == ParamCategory::kPlan;
    f[FeatureLayout::kThetaOffset + i] =
        i < conf.size() && !dropped ? spec.Normalize(conf[i]) : 0.0;
  }
}

void WriteCardinalityBlock(const StageScalars& stage, double* block) {
  block[0] = Log1p(stage.input_rows);
  block[1] = Log1p(stage.input_bytes);
  block[2] = Log1p(stage.output_rows);
  block[3] = Log1p(stage.output_bytes);
  block[4] = Log1p(stage.shuffle_read_bytes);
  block[5] = Log1p(stage.broadcast_bytes);
  block[6] = Log1p(stage.cpu_work);
  block[7] = Log1p(stage.sort_work);
}

void WriteStageFeatures(const StageScalars& stage, const double* cardinality,
                        double* f) {
  // ---- cardinality block ----
  std::copy_n(cardinality, FeatureLayout::kCardinality, f + kCardinalityAt);

  // ---- stage metadata: join and stage flags ----
  const auto joins_by = [&stage](JoinAlgo algo) {
    return stage.has_join && stage.join_algo == algo ? 1.0 : 0.0;
  };
  f[kMetaAt + 0] = stage.is_scan_stage ? 1.0 : 0.0;
  f[kMetaAt + 1] = stage.has_join ? 1.0 : 0.0;
  f[kMetaAt + 2] = joins_by(JoinAlgo::kSortMergeJoin);
  f[kMetaAt + 3] = joins_by(JoinAlgo::kShuffledHashJoin);
  f[kMetaAt + 4] = joins_by(JoinAlgo::kBroadcastHashJoin);
  f[kMetaAt + 6] = stage.exchanges_output ? 1.0 : 0.0;
}

ContextFeatures MakeContextFeatures(const std::vector<double>& conf,
                                    const ContextParams& tc) {
  ContextFeatures c;
  // ---- theta_c: normalized context parameters ----
  const auto& space = SparkParamSpace();
  for (size_t i = 0; i < c.theta.size(); ++i) {
    c.theta[i] = i < conf.size() ? space.spec(i).Normalize(conf[i]) : 0.0;
  }
  // ---- derived interaction terms of theta_c alone ----
  c.cores = std::max(1, tc.TotalCores());
  c.log_cores = Log1p(c.cores);
  c.log_memory = Log1p(tc.MemoryPerTaskMb());
  return c;
}

void WriteRowFeatures(const ContextFeatures& tc, const StageScalars& stage,
                      double* f) {
  std::copy(tc.theta.begin(), tc.theta.end(),
            f + FeatureLayout::kThetaOffset);

  // ---- stage metadata: partition count ----
  f[kMetaAt + 5] = Log1p(stage.num_partitions);

  // ---- derived interaction terms ----
  f[kDerivedAt + 0] = tc.log_cores;
  f[kDerivedAt + 1] = tc.log_memory;
  f[kDerivedAt + 2] = Log1p(stage.num_partitions / tc.cores);
  f[kDerivedAt + 3] =
      Log1p(stage.input_bytes / (1024.0 * 1024.0) / tc.cores);
}

std::vector<double> CollapsedPlanFeatures(
    const LogicalPlan& plan, const std::vector<QueryStage>& remaining_stages,
    const std::vector<double>& conf, const std::vector<double>& gamma) {
  std::vector<double> pooled(FeatureLayout::Total() + 1, 0.0);
  if (remaining_stages.empty()) return pooled;
  for (const auto& st : remaining_stages) {
    const auto beta = PartitionDistributionStats(st.partitions);
    const auto f = StageFeatures(plan, st, conf, /*use_true_cards=*/true,
                                 beta, gamma, /*drop_theta_p=*/false);
    for (size_t i = 0; i < f.size(); ++i) pooled[i] += f[i];
  }
  const double inv = 1.0 / static_cast<double>(remaining_stages.size());
  for (size_t i = 0; i + 1 < pooled.size(); ++i) pooled[i] *= inv;
  pooled.back() = static_cast<double>(remaining_stages.size());
  return pooled;
}

}  // namespace sparkopt
