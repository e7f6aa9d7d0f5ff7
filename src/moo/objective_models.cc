#include "moo/objective_models.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "params/sampler.h"

namespace sparkopt {

void AnalyticSubQModel::set_num_objectives(int k) {
  SPARKOPT_CHECK(k == 2 || k == 3)
      << "AnalyticSubQModel supports 2 or 3 objectives, got " << k;
  num_objectives_ = k;
}

void LearnedSubQModel::set_num_objectives(int k) {
  SPARKOPT_CHECK(k == 2 || k == 3)
      << "LearnedSubQModel supports 2 or 3 objectives, got " << k;
  num_objectives_ = k;
}

namespace {

#ifdef SPARKOPT_VERIFY
bool SameBits(const ObjectiveVector& a, const ObjectiveVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}
#endif

/// A run of batch rows whose theta_c entries (conf 0-7) carry the same
/// bits: they share one decoded theta_c, and whatever a model derives
/// from it. HMOOC's batches are one run each.
class ThetaCRun {
 public:
  /// Whether `conf` starts a new run; if so, decodes its theta_c.
  bool Starts(const std::vector<double>& conf) {
    if (conf_ != nullptr && SameThetaC(*conf_, conf)) return false;
    conf_ = &conf;
    tc_ = DecodeContext(conf);
    return true;
  }
  const ContextParams& theta_c() const { return tc_; }

 private:
  static bool SameThetaC(const std::vector<double>& a,
                         const std::vector<double>& b) {
    constexpr size_t kWidth = kAdvisoryPartitionSizeMb;
    if (a.size() < kWidth || b.size() < kWidth) return false;
    uint64_t differ = 0;
    for (size_t i = 0; i < kWidth; ++i) {
      differ |= std::bit_cast<uint64_t>(a[i]) ^ std::bit_cast<uint64_t>(b[i]);
    }
    return differ == 0;
  }

  const std::vector<double>* conf_ = nullptr;
  ContextParams tc_;
};

/// The rows one theta_c run has costed, by (table entry, partition
/// count): each key maps to the first row that costed it, whose
/// objectives the later rows copy. Open addressing with an epoch per
/// slot, so a new run clears it in O(1). One per thread; it keeps only
/// row numbers, never state that outlives a call.
class StageMemo {
 public:
  /// Sizes the memo for a call of `rows` rows.
  void Prepare(size_t rows) {
    int bits = 6;
    while ((size_t{1} << bits) < 2 * rows) ++bits;
    if (slots_.size() < (size_t{1} << bits)) {
      slots_.assign(size_t{1} << bits, Slot());
      shift_ = 64 - bits;
      epoch_ = 0;
    }
  }
  /// Forgets every key (a new theta_c run).
  void Clear() {
    if (++epoch_ == 0) {
      for (Slot& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }
  /// The row holding the objectives of (entry, partitions), or -1 after
  /// recording `row` as that row.
  int64_t FindOrAdd(const StageTable::Entry* entry, int partitions,
                    uint32_t row) {
    const uint64_t hash =
        reinterpret_cast<uintptr_t>(entry) ^
        static_cast<uint64_t>(static_cast<uint32_t>(partitions)) << 32;
    const size_t mask = slots_.size() - 1;
    for (size_t at = (hash * 0x9E3779B97F4A7C15ULL) >> shift_;;
         at = (at + 1) & mask) {
      Slot& slot = slots_[at];
      if (slot.epoch != epoch_) {
        slot = {entry, partitions, epoch_, row};
        return -1;
      }
      if (slot.entry == entry && slot.partitions == partitions) {
        return slot.row;
      }
    }
  }

 private:
  struct Slot {
    const StageTable::Entry* entry = nullptr;
    int partitions = 0;
    uint32_t epoch = 0;
    uint32_t row = 0;
  };
  std::vector<Slot> slots_;
  int shift_ = 64;  ///< 64 - log2(slots)
  uint32_t epoch_ = 0;
};

}  // namespace

void AnalyticSubQModel::ToObjectives(const SubQObjectives& obj,
                                     ObjectiveVector* out) const {
  out->resize(static_cast<size_t>(num_objectives_));
  (*out)[0] = obj.analytical_latency;
  (*out)[1] = obj.cost;
  if (num_objectives_ == 3) (*out)[2] = obj.io_bytes / 1e9;
}

ObjectiveVector AnalyticSubQModel::Evaluate(
    int subq, const std::vector<double>& conf) const {
  evals_.fetch_add(1, std::memory_order_relaxed);
  const ContextParams tc = DecodeContext(conf);
  const PlanParams tp = DecodePlan(conf);
  const StageParams ts = DecodeStage(conf);
  ObjectiveVector f;
  ToObjectives(
      evaluator_.Evaluate(subq, tc, tp, ts, CardinalitySource::kEstimated),
      &f);
  return f;
}

void AnalyticSubQModel::EvaluateBatch(
    int subq, const std::vector<std::vector<double>>& confs,
    std::vector<ObjectiveVector>* out) const {
  out->resize(confs.size());
  thread_local std::vector<StageTable::Row> rows;
  thread_local std::vector<PartitionRun> scratch;
  thread_local StageMemo memo;
  table_.Resolve(subq, confs, &rows);
  memo.Prepare(confs.size());
  obs::Histogram* const latency_us = obs::HistogramFor("model.inference_us");
  ThetaCRun run;
  size_t table_rows = 0;
  for (size_t i = 0; i < confs.size(); ++i) {
    const StageTable::Row& row = rows[i];
    if (row.entry == nullptr) {
      (*out)[i] = Evaluate(subq, confs[i]);
      continue;
    }
    ++table_rows;
    if (run.Starts(confs[i])) memo.Clear();
    const ContextParams& tc = run.theta_c();
    {
      obs::ScopedHistogramTimer timer(latency_us);
      // Rows of one theta_c whose stages share a table entry and a
      // partition count have the same objectives: the first one costs
      // them, the others copy its bits.
      const int64_t first =
          memo.FindOrAdd(row.entry, StageTable::PartitionCount(row, tc),
                         static_cast<uint32_t>(i));
      if (first >= 0) {
        (*out)[i] = (*out)[first];
      } else {
        const StageScalars st = StageTable::Scalars(row, tc);
        ToObjectives(
            evaluator_.CostStage(st, StageTable::Runs(row, st, &scratch), tc),
            &(*out)[i]);
      }
    }
#ifdef SPARKOPT_VERIFY
    const QueryStage direct = evaluator_.BuildStage(
        subq, tc, DecodePlan(confs[i]), DecodeStage(confs[i]),
        CardinalitySource::kEstimated);
    ObjectiveVector want;
    ToObjectives(evaluator_.CostStage(direct, direct.partitions, tc), &want);
    SPARKOPT_CHECK(SameBits((*out)[i], want))
        << "stage-table row " << i << " of subQ " << subq
        << " differs from the direct path";
#endif
  }
  evals_.fetch_add(table_rows, std::memory_order_relaxed);
  obs::Count("model.inferences", table_rows);
}

namespace {

/// Latency/cost derivation shared by the single and batched learned
/// paths (`pred` = {latency, io_mb} from the regressor), written into
/// `out` in place. With k = 3 the predicted IO itself becomes the third
/// objective (gigabytes).
void DeriveObjectives(const PriceBook& prices, const ContextParams& tc,
                      const double* pred, int k, ObjectiveVector* out) {
  const double latency = std::max(pred[0], 1e-4);
  const double io_mb = std::max(pred[1], 0.0);
  const int cores = tc.TotalCores();
  const double mem_gb = tc.executor_memory_gb * tc.executor_instances;
  out->resize(static_cast<size_t>(k));
  (*out)[0] = latency;
  (*out)[1] = CloudCost(prices, cores, mem_gb, latency, io_mb / 1024.0);
  if (k == 3) (*out)[2] = io_mb / 1024.0;
}

}  // namespace

ObjectiveVector LearnedSubQModel::Evaluate(
    int subq, const std::vector<double>& conf) const {
  evals_.fetch_add(1, std::memory_order_relaxed);
  return Direct(subq, conf);
}

std::vector<double> LearnedSubQModel::DirectFeatures(
    int subq, const std::vector<double>& conf,
    const ContextParams& tc) const {
  const QueryStage stage =
      evaluator_.BuildStage(subq, tc, DecodePlan(conf), DecodeStage(conf),
                            CardinalitySource::kEstimated);
  return StageFeatures(evaluator_.query().plan, stage, conf,
                       /*use_true_cards=*/false, /*beta=*/{}, /*gamma=*/{},
                       /*drop_theta_p=*/false);
}

ObjectiveVector LearnedSubQModel::Direct(
    int subq, const std::vector<double>& conf) const {
  const ContextParams tc = DecodeContext(conf);
  const auto pred = model_->Predict(DirectFeatures(subq, conf, tc));
  ObjectiveVector f;
  DeriveObjectives(prices_, tc, pred.data(), num_objectives_, &f);
  return f;
}

void LearnedSubQModel::EvaluateBatch(
    int subq, const std::vector<std::vector<double>>& confs,
    std::vector<ObjectiveVector>* out) const {
  out->resize(confs.size());
  if (confs.empty()) return;
  evals_.fetch_add(confs.size(), std::memory_order_relaxed);

  const size_t d = model_->input_dim();
  const size_t k = model_->output_dim();
  SPARKOPT_CHECK_EQ(d, static_cast<size_t>(FeatureLayout::Total()))
      << "regressor input width differs from the feature layout";
  thread_local std::vector<StageTable::Row> rows;
  thread_local std::vector<double> features;
  thread_local std::vector<double> preds;
  thread_local Mlp::BatchScratch scratch;
  features.resize(confs.size() * d);
  preds.resize(confs.size() * k);

  table_.Resolve(subq, confs, &rows);
  // The theta_c block of a row is written once per theta_c run; a table
  // row then computes only its partition terms.
  ThetaCRun run;
  ContextFeatures context;
  for (size_t i = 0; i < confs.size(); ++i) {
    if (run.Starts(confs[i])) {
      context = MakeContextFeatures(confs[i], run.theta_c());
    }
    const ContextParams& tc = run.theta_c();
    double* f = features.data() + i * d;
    if (rows[i].entry != nullptr) {
      table_.WriteFeatures(subq, rows[i], context,
                           StageTable::Scalars(rows[i], tc), f);
      continue;
    }
    const auto row = DirectFeatures(subq, confs[i], tc);
    std::copy(row.begin(), row.end(), f);
  }
  model_->PredictBatchInto(features.data(), confs.size(), preds.data(),
                           &scratch);
  run = ThetaCRun();
  for (size_t i = 0; i < confs.size(); ++i) {
    run.Starts(confs[i]);
    DeriveObjectives(prices_, run.theta_c(), preds.data() + i * k,
                     num_objectives_, &(*out)[i]);
#ifdef SPARKOPT_VERIFY
    SPARKOPT_CHECK(rows[i].entry == nullptr ||
                   SameBits((*out)[i], Direct(subq, confs[i])))
        << "stage-table row " << i << " of subQ " << subq
        << " differs from the direct path";
#endif
  }
}

// ---- Multi-fidelity screening ------------------------------------------

void SelectSurvivors2(const std::vector<ObjectiveVector>& tier0,
                      double survival_margin, int min_promote,
                      double promote_frac, std::vector<size_t>* out) {
  out->clear();
  const size_t n = tier0.size();
  if (n == 0) return;
  const size_t nk = tier0[0].size();
  const std::vector<size_t> front = ParetoIndices(tier0);

  // Margin ratio against the tier-0 front (see header). Denominators are
  // floored to keep near-zero objectives from exploding the ratio.
  std::vector<double> ratio(n, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < n; ++i) {
    for (size_t g : front) {
      double worst = 0.0;
      for (size_t d = 0; d < nk; ++d) {
        worst = std::max(worst,
                         tier0[i][d] / std::max(tier0[g][d], 1e-12));
      }
      ratio[i] = std::min(ratio[i], worst);
    }
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (ratio[a] != ratio[b]) return ratio[a] < ratio[b];
    return a < b;
  });

  size_t in_band = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ratio[i] <= 1.0 + survival_margin) ++in_band;
  }
  size_t floor_k = std::max<size_t>(
      std::max(min_promote, 0),
      static_cast<size_t>(
          std::ceil(promote_frac * static_cast<double>(n))));
  floor_k = std::clamp<size_t>(floor_k, std::min<size_t>(n, 2), n);
  const size_t k = std::max(in_band, floor_k);

  std::vector<char> taken(n, 0);
  for (size_t i = 0; i < k; ++i) taken[order[i]] = 1;
  // Extreme guarantee: the boundary (HMOOC3) aggregation is built from
  // per-objective minima, and a candidate that is near-best on one
  // objective but poor on the other scores a bad dominance ratio. Promote
  // the top candidates of each single objective so a tier-0 screen can
  // never starve the extremes of the tier-1 front.
  const size_t per_obj =
      std::min<size_t>(n, std::max<size_t>(1, std::max(min_promote, 0) / 2));
  for (size_t d = 0; d < nk; ++d) {
    std::vector<size_t> by_obj(n);
    std::iota(by_obj.begin(), by_obj.end(), size_t{0});
    std::partial_sort(by_obj.begin(), by_obj.begin() + per_obj, by_obj.end(),
                      [&](size_t a, size_t b) {
                        if (tier0[a][d] != tier0[b][d]) {
                          return tier0[a][d] < tier0[b][d];
                        }
                        return a < b;
                      });
    for (size_t i = 0; i < per_obj; ++i) taken[by_obj[i]] = 1;
  }
  for (size_t i = 0; i < n; ++i) {
    if (taken[i]) out->push_back(i);
  }
}

bool ScreeningSubQModel::usable() const {
  if (fidelity_.mode != FidelityMode::kDistilled ||
      fidelity_.distilled == nullptr ||
      static_cast<int>(fidelity_.distilled->size()) != tier1_->num_subqs()) {
    return false;
  }
  for (const auto& reg : *fidelity_.distilled) {
    if (!reg.trained()) return false;
    // A screen must predict one value per tier-1 objective.
    if (static_cast<int>(reg.output_dim()) != tier1_->num_objectives()) {
      return false;
    }
  }
  return true;
}

void ScreeningSubQModel::EvaluateBatch(
    int subq, const std::vector<std::vector<double>>& confs,
    std::vector<ObjectiveVector>* out) const {
  const size_t n = confs.size();
  // Below the promotion floor the screen cannot prune anything — skip the
  // tier-0 pass entirely and keep single-fidelity behavior.
  const size_t floor_k = std::max<size_t>(
      std::max(fidelity_.min_promote, 0),
      static_cast<size_t>(
          std::ceil(fidelity_.promote_frac * static_cast<double>(n))));
  if (n <= std::max<size_t>(floor_k, 2)) {
    tier1_->EvaluateBatch(subq, confs, out);
    return;
  }

  // Tier 0: screen every candidate. Screen objective width follows the
  // tier-1 model (the distilled screens are trained at the same width).
  SPARKOPT_DCHECK(usable());
  const size_t nk = static_cast<size_t>(tier1_->num_objectives());
  const Regressor& reg = (*fidelity_.distilled)[subq];
  const size_t d = static_cast<size_t>(reg.input_dim());
  thread_local std::vector<double> flat;
  thread_local std::vector<double> preds;
  thread_local Mlp::BatchScratch scratch;
  flat.assign(n * d, 0.0);
  preds.resize(n * nk);
  for (size_t i = 0; i < n; ++i) {
    const size_t m = std::min(d, confs[i].size());
    std::copy(confs[i].begin(), confs[i].begin() + m, flat.begin() + i * d);
  }
  reg.PredictBatchInto(flat.data(), n, preds.data(), &scratch);
  std::vector<ObjectiveVector> t0(n);
  for (size_t i = 0; i < n; ++i) {
    t0[i] = {std::max(preds[nk * i], 1e-4),
             std::max(preds[nk * i + 1], 1e-12)};
    if (nk == 3) t0[i].push_back(std::max(preds[nk * i + 2], 1e-12));
  }
  tier0_evals_.fetch_add(n, std::memory_order_relaxed);
  obs::Count("hmooc.mf_tier0_evals", n);

  std::vector<size_t> survivors;
  SelectSurvivors2(t0, fidelity_.survival_margin, fidelity_.min_promote,
                   fidelity_.promote_frac, &survivors);

  // Tier 1: escalate the survivors; the final objectives are tier-1 only.
  std::vector<std::vector<double>> promoted;
  promoted.reserve(survivors.size());
  for (size_t s : survivors) promoted.push_back(confs[s]);
  std::vector<ObjectiveVector> t1;
  tier1_->EvaluateBatch(subq, promoted, &t1);
  tier1_evals_.fetch_add(survivors.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  obs::Count("hmooc.mf_tier1_evals", survivors.size());
  obs::Observe("hmooc.mf_survival_rate",
               static_cast<double>(survivors.size()) /
                   static_cast<double>(n));

  constexpr double kInf = std::numeric_limits<double>::infinity();
  out->assign(n, ObjectiveVector(nk, kInf));
  for (size_t j = 0; j < survivors.size(); ++j) {
    (*out)[survivors[j]] = std::move(t1[j]);
  }
}

Result<std::vector<Regressor>> TrainDistilledScreens(
    const SubQObjectiveModel& tier1, int samples, uint64_t seed) {
  if (samples < 16) {
    return Status::InvalidArgument(
        "TrainDistilledScreens: need >= 16 samples");
  }
  Rng rng(seed);
  const auto& space = SparkParamSpace();
  // Teacher labels on tier-1 objectives; a second unlabeled sample gets
  // pseudo-labels from the teacher during distillation. Margin 0 so the
  // screen covers every conf a solve (whatever its search_margin) emits.
  const auto labeled = SampleLatinHypercube(
      space, static_cast<size_t>(samples), &rng, /*margin=*/0.0);
  auto distill_x = labeled;
  const auto extra = SampleLatinHypercube(
      space, static_cast<size_t>(samples), &rng, /*margin=*/0.0);
  distill_x.insert(distill_x.end(), extra.begin(), extra.end());

  const int dims = static_cast<int>(space.size());
  const int nk = tier1.num_objectives();
  std::vector<Regressor> screens;
  screens.reserve(tier1.num_subqs());
  std::vector<ObjectiveVector> fs;
  for (int i = 0; i < tier1.num_subqs(); ++i) {
    tier1.EvaluateBatch(i, labeled, &fs);
    Matrix y;
    y.reserve(fs.size());
    for (const auto& f : fs) y.push_back(ObjectiveVector(f.begin(), f.end()));

    Mlp::TrainOptions topts;
    topts.epochs = 100;
    topts.batch_size = 32;
    topts.seed = HashCombine(seed, 0xD1 + static_cast<uint64_t>(i));
    Regressor teacher(dims, nk, {32, 16},
                      HashCombine(seed, 0x7E + static_cast<uint64_t>(i)));
    SPARKOPT_RETURN_NOT_OK(teacher.Fit(labeled, y, topts));

    Mlp::TrainOptions sopts = topts;
    sopts.seed = HashCombine(seed, 0x5D + static_cast<uint64_t>(i));
    auto student = teacher.Distill(distill_x, {16}, sopts);
    if (!student.ok()) return student.status();
    screens.push_back(std::move(*student));
  }
  return screens;
}

}  // namespace sparkopt
