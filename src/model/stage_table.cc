#include "model/stage_table.h"

#include <algorithm>
#include <bit>
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

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// A stage's content, every field by its bits, with its skew and runs: the
// equality under which slices share an entry. The scalars carry the subQ
// id, so entries of different subQs never compare equal.
uint64_t StageHash(const StageScalars& st, double skew,
                   std::span<const PartitionRun> runs) {
  uint64_t h = HashCombine(static_cast<uint64_t>(st.subq_id),
                           static_cast<uint64_t>(st.num_partitions));
  for (const double v : {st.input_rows, st.input_bytes, st.output_rows,
                         st.output_bytes, st.shuffle_read_bytes,
                         st.broadcast_bytes, st.cpu_work, st.sort_work,
                         skew}) {
    h = HashCombine(h, Bits(v));
  }
  h = HashCombine(h, (st.is_scan_stage ? 1u : 0u) |
                         (st.exchanges_output ? 2u : 0u) |
                         (st.has_join ? 4u : 0u) |
                         static_cast<uint64_t>(st.join_algo) << 3);
  for (const PartitionRun& r : runs) {
    h = HashCombine(HashCombine(h, static_cast<uint64_t>(r.count)),
                    Bits(r.bytes));
  }
  return Mix64(h);
}

bool SameStage(const StageTable::Entry& e, const StageScalars& st,
               double skew, std::span<const PartitionRun> runs) {
  const StageScalars& a = e.stage;
  if (a.id != st.id || a.subq_id != st.subq_id ||
      a.num_partitions != st.num_partitions ||
      Bits(a.input_rows) != Bits(st.input_rows) ||
      Bits(a.input_bytes) != Bits(st.input_bytes) ||
      Bits(a.output_rows) != Bits(st.output_rows) ||
      Bits(a.output_bytes) != Bits(st.output_bytes) ||
      Bits(a.shuffle_read_bytes) != Bits(st.shuffle_read_bytes) ||
      Bits(a.broadcast_bytes) != Bits(st.broadcast_bytes) ||
      a.is_scan_stage != st.is_scan_stage ||
      a.exchanges_output != st.exchanges_output ||
      Bits(a.cpu_work) != Bits(st.cpu_work) ||
      Bits(a.sort_work) != Bits(st.sort_work) ||
      a.join_algo != st.join_algo || a.has_join != st.has_join ||
      Bits(e.skew) != Bits(skew) ||
      static_cast<size_t>(e.num_runs) != runs.size()) {
    return false;
  }
  for (size_t r = 0; r < runs.size(); ++r) {
    if (e.runs[r].count != runs[r].count ||
        Bits(e.runs[r].bytes) != Bits(runs[r].bytes)) {
      return false;
    }
  }
  return true;
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
  slices_.reserve(kMaxSlices);
  slice_index_.assign(kIndexSlots, -1);
  entries_.resize(m);
  canonical_.reserve(kMaxSlices);
  canonical_index_.assign(kIndexSlots, -1);
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
  evaluator_->PlanStage(subq, slice.theta_p, CardinalitySource::kEstimated,
                        /*completed_subqs=*/nullptr, &skew, &build_);
  if (!build_.is_scan_stage) {
    // A shuffle stage's partitioning reads no theta_c.
    PartitionStage(ContextParams(), slice.theta_p, slice.theta_s, skew,
                   &build_);
  }
  const std::span<const PartitionRun> runs(build_.partitions);
  const size_t mask = canonical_index_.size() - 1;
  size_t at = StageHash(build_, skew, runs) & mask;
  for (;; at = (at + 1) & mask) {
    const int found = canonical_index_[at];
    if (found < 0) break;
    if (SameStage(*canonical_[found], build_, skew, runs)) {
      return canonical_[found];
    }
  }
  Entry* e = arena_.AllocArray<Entry>(1);
  *e = Entry();
  e->stage = build_;
  e->skew = skew;
  if (!runs.empty()) {
    PartitionRun* copy = arena_.AllocArray<PartitionRun>(runs.size());
    std::copy(runs.begin(), runs.end(), copy);
    e->runs = copy;
    e->num_runs = static_cast<int>(runs.size());
  }
  if (!subq_features_.empty()) {
    double* block = arena_.AllocArray<double>(FeatureLayout::kCardinality);
    WriteCardinalityBlock(e->stage, block);
    e->cardinality = block;
  }
  canonical_index_[at] = static_cast<int>(canonical_.size());
  canonical_.push_back(e);
  if (2 * canonical_.size() >= canonical_index_.size()) GrowCanonicalIndex();
  return e;
}

void StageTable::GrowCanonicalIndex() {
  canonical_index_.assign(2 * canonical_index_.size(), -1);
  const size_t mask = canonical_index_.size() - 1;
  for (size_t i = 0; i < canonical_.size(); ++i) {
    const Entry& e = *canonical_[i];
    size_t at = StageHash(e.stage, e.skew,
                          {e.runs, static_cast<size_t>(e.num_runs)}) &
                mask;
    while (canonical_index_[at] >= 0) at = (at + 1) & mask;
    canonical_index_[at] = static_cast<int>(i);
  }
}

void StageTable::Resolve(int subq,
                         const std::vector<std::vector<double>>& confs,
                         std::vector<Row>* rows) {
  rows->assign(confs.size(), Row());
  MutexLock lock(mu_);
  std::vector<const Entry*>& by_slice = entries_[subq];
  by_slice.reserve(kMaxSlices);
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

int StageTable::PartitionCount(const Row& row,
                               const ContextParams& theta_c) {
  const StageScalars& st = row.entry->stage;
  return st.is_scan_stage
             ? ScanPartitionCount(st.input_bytes, theta_c.default_parallelism,
                                  row.slice->theta_p)
             : st.num_partitions;
}

StageScalars StageTable::Scalars(const Row& row,
                                 const ContextParams& theta_c) {
  StageScalars st = row.entry->stage;
  st.num_partitions = PartitionCount(row, theta_c);
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
                               const ContextFeatures& theta_c,
                               const StageScalars& stage, double* f) const {
  const size_t d = FeatureLayout::Total();
  SPARKOPT_DCHECK(row.entry->cardinality != nullptr)
      << "StageTable built without features";
  std::copy_n(subq_features_.data() + subq * d, d, f);
  std::copy(row.slice->features.begin(), row.slice->features.end(),
            f + FeatureLayout::kThetaOffset + kSliceBegin);
  WriteStageFeatures(stage, row.entry->cardinality, f);
  WriteRowFeatures(theta_c, stage, f);
}

int StageTable::num_slices() const {
  MutexLock lock(mu_);
  return static_cast<int>(slices_.size());
}

}  // namespace sparkopt
