#include "moo/objective_models.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/check.h"
#include "obs/trace.h"

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

}  // namespace sparkopt
