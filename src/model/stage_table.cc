#include "model/stage_table.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/check.h"
#include "common/rng.h"

namespace sparkopt {

namespace {

// Slots of the slice index: a power of two, twice the cap, so probes
// stay short.
constexpr size_t kIndexSlots = 2 * StageTable::kMaxSlices;
static_assert((kIndexSlots & (kIndexSlots - 1)) == 0);

// Arena block size: a solve's entries and runs take tens to hundreds of
// kilobytes.
constexpr size_t kArenaBlockBytes = 16 << 10;

// The arena hands out raw storage that these are assigned into.
static_assert(std::is_trivially_copyable_v<StageTable::Slice>);
static_assert(std::is_trivially_copyable_v<StageTable::Entry>);

uint64_t SliceHash(const std::vector<double>& conf) {
  return Mix64(HashWords(conf.data() + StageTable::kSliceBegin,
                         StageTable::kSliceWidth));
}

}  // namespace

StageTable::StageTable(const SubQEvaluator* evaluator, bool with_features)
    : evaluator_(evaluator), arena_(kArenaBlockBytes) {
  const int m = evaluator_->num_subqs();
  if (with_features) {
    const size_t d = FeatureLayout::Total();
    subq_features_.assign(m * d, 0.0);
    for (int s = 0; s < m; ++s) {
      WriteSubQFeatures(evaluator_->query().plan,
                        evaluator_->subqueries()[s].op_ids,
                        /*use_true_cards=*/false, &subq_features_[s * d]);
    }
  }
  MutexLock lock(mu_);
  slice_index_.assign(kIndexSlots, -1);
  entries_.resize(m);
}

int StageTable::FindOrAddSlice(const std::vector<double>& conf) {
  std::array<uint64_t, kSliceWidth> key{};
  std::memcpy(key.data(), conf.data() + kSliceBegin, sizeof(key));
  size_t at = SliceHash(conf) & (kIndexSlots - 1);
  for (;; at = (at + 1) & (kIndexSlots - 1)) {
    const int found = slice_index_[at];
    if (found < 0) break;
    if (slices_[found]->key == key) return found;
  }
  if (static_cast<int>(slices_.size()) >= kMaxSlices) return -1;
  Slice* slice = arena_.AllocArray<Slice>(1);
  *slice = Slice();
  slice->key = key;
  slice->theta_p = DecodePlan(conf);
  slice->theta_s = DecodeStage(conf);
  double row[FeatureLayout::Total()] = {};
  WriteSliceFeatures(conf, /*drop_theta_p=*/false, row);
  std::copy_n(row + FeatureLayout::kThetaOffset + kSliceBegin, kSliceWidth,
              slice->features.begin());
  slice_index_[at] = static_cast<int>(slices_.size());
  slices_.push_back(slice);
  return slice_index_[at];
}

const StageTable::Entry* StageTable::BuildEntry(int subq,
                                                const Slice& slice) {
  double skew = 0.0;
  QueryStage st = evaluator_->PlanStage(subq, slice.theta_p,
                                        CardinalitySource::kEstimated,
                                        /*completed_subqs=*/nullptr, &skew);
  Entry* e = arena_.AllocArray<Entry>(1);
  *e = Entry();
  e->skew = skew;
  if (!st.is_scan_stage) {
    // A shuffle stage's partitioning reads no theta_c.
    PartitionStage(ContextParams(), slice.theta_p, slice.theta_s, skew, &st);
    PartitionRun* runs = arena_.AllocArray<PartitionRun>(st.partitions.size());
    std::copy(st.partitions.begin(), st.partitions.end(), runs);
    e->runs = runs;
    e->num_runs = static_cast<int>(st.partitions.size());
  }
  e->stage = st;
  return e;
}

void StageTable::Resolve(int subq,
                         const std::vector<std::vector<double>>& confs,
                         std::vector<Row>* rows) {
  rows->assign(confs.size(), Row());
  MutexLock lock(mu_);
  std::vector<const Entry*>& by_slice = entries_[subq];
  for (size_t i = 0; i < confs.size(); ++i) {
    if (confs[i].size() != kNumSparkParams) continue;
    const int slice = FindOrAddSlice(confs[i]);
    if (slice < 0) continue;
    if (by_slice.size() <= static_cast<size_t>(slice)) {
      by_slice.resize(slices_.size(), nullptr);
    }
    const Entry*& entry = by_slice[slice];
    if (entry == nullptr) entry = BuildEntry(subq, *slices_[slice]);
    (*rows)[i] = {slices_[slice], entry};
  }
}

StageScalars StageTable::Scalars(const Row& row,
                                 const ContextParams& theta_c) {
  StageScalars st = row.entry->stage;
  if (st.is_scan_stage) {
    st.num_partitions = ScanPartitionCount(
        st.input_bytes, theta_c.default_parallelism, row.slice->theta_p);
  }
  return st;
}

std::span<const PartitionRun> StageTable::Runs(
    const Row& row, const StageScalars& stage,
    std::vector<PartitionRun>* scratch) {
  if (!stage.is_scan_stage) {
    return {row.entry->runs, static_cast<size_t>(row.entry->num_runs)};
  }
  if (row.entry->skew == 0.0) {
    scratch->assign(1, UniformRun(stage.input_bytes, stage.num_partitions));
  } else {
    *scratch = SkewedPartitionSizes(stage.input_bytes, stage.num_partitions,
                                    row.entry->skew);
  }
  return *scratch;
}

void StageTable::WriteFeatures(int subq, const Row& row,
                               const std::vector<double>& conf,
                               const ContextParams& theta_c,
                               const StageScalars& stage, double* f) const {
  const size_t d = FeatureLayout::Total();
  SPARKOPT_DCHECK(subq_features_.size() ==
                  static_cast<size_t>(evaluator_->num_subqs()) * d)
      << "StageTable built without features";
  std::copy_n(subq_features_.data() + subq * d, d, f);
  std::copy(row.slice->features.begin(), row.slice->features.end(),
            f + FeatureLayout::kThetaOffset + kSliceBegin);
  WriteStageFeatures(stage, f);
  WriteRowFeatures(conf, theta_c, stage, f);
}

int StageTable::num_slices() const {
  MutexLock lock(mu_);
  return static_cast<int>(slices_.size());
}

}  // namespace sparkopt
