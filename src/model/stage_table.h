#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/thread_safety.h"
#include "model/features.h"
#include "model/subq_evaluator.h"

/// \file stage_table.h
/// \brief The stage each theta_p/theta_s slice fixes, built once per
/// (subQ, slice) for the compile-time models' batched rows.
///
/// A conf's slice is its 11 theta_p and theta_s entries. A subQ's
/// compile-time stage reads theta_c only through a scan stage's partition
/// count (ScanPartitionCount reads k4). The slice fixes everything else:
/// join choices, cardinalities and work, and on a shuffle stage the whole
/// partitioning, skew split and coalescing included. HMOOC solves every
/// theta_c against one pool of `theta_p_samples` slices, so a subQ has at
/// most that many distinct stages against thousands of rows. The table
/// builds each once, and a row then pays only for what its theta_c
/// changes: a scan stage's partition count, the task costs and, for the
/// learned model, the theta_c features.
///
/// Slices are keyed by the raw bits of conf entries 8-18. Decoded values
/// would not do: the learned model normalizes raw values, so
/// `shuffle_partitions` 200.2 and 200.8 decode to the same 200 but are
/// different features.
///
/// Many slices build the same stage: a scan stage reads only the join
/// choices of its slice, and coalescing maps many shuffle partition
/// counts to the same runs. So each distinct stage is kept once per subQ:
/// slices whose stages are equal bit for bit (scalars, skew and runs)
/// share one entry, found at build time through a hash index and a full
/// compare, and two rows of a subQ have equal stages exactly when they
/// point to the same entry. A model then costs each distinct (entry,
/// partition count) once per theta_c (AnalyticSubQModel::EvaluateBatch).
///
/// Each model owns one table, and models are built per solve (Tuner::Run,
/// TuningService::Solve), so a table lives one solve. It holds at most
/// kMaxSlices slices; rows of further slices are left unresolved and take
/// the model's direct path. The table is thread-safe: Resolve takes its
/// one lock once per call, and what it publishes is immutable and never
/// moves, so rows read it without the lock.

namespace sparkopt {

class StageTable {
 public:
  /// Slices one table holds. An HMOOC solve's slices are its theta_p
  /// pool: 128 by default, at most 192 in any bench or test, so four
  /// times the default holds every pool in use with room to spare.
  static constexpr int kMaxSlices = 512;
  /// Conf entries of a slice: theta_p then theta_s.
  static constexpr size_t kSliceBegin = kAdvisoryPartitionSizeMb;
  static constexpr size_t kSliceWidth = kNumSparkParams - kSliceBegin;

  /// One slice, stored once per table.
  struct Slice {
    std::array<uint64_t, kSliceWidth> key;  ///< raw bits of the entries
    PlanParams theta_p;
    StageParams theta_s;
    /// WriteSliceFeatures' values, theta entry kSliceBegin first.
    std::array<double, kSliceWidth> features;
  };

  /// One subQ's stage under one or more slices. On a shuffle stage it is
  /// the whole stage; on a scan stage `stage.num_partitions` is left
  /// unset, and the row's theta_c sets it (see Scalars).
  struct Entry {
    StageScalars stage;
    double skew = 0.0;  ///< the operators' key skew (PlanStage)
    const PartitionRun* runs = nullptr;  ///< shuffle stages only
    int num_runs = 0;
    /// WriteCardinalityBlock of `stage`, FeatureLayout::kCardinality
    /// values; tables built with features only.
    const double* cardinality = nullptr;
  };

  /// A row's slice and entry; both null when the row takes the direct
  /// path (its slice is past the cap, or its conf is not 19 wide).
  struct Row {
    const Slice* slice = nullptr;
    const Entry* entry = nullptr;
  };

  /// `evaluator` must outlive the table. `with_features` keeps each
  /// subQ's per-subQ feature blocks and each entry's cardinality block,
  /// for WriteFeatures.
  StageTable(const SubQEvaluator* evaluator, bool with_features);

  StageTable(const StageTable&) = delete;
  StageTable& operator=(const StageTable&) = delete;

  /// Resolves each conf's row for `subq`, adding the slices and building
  /// the entries it has not seen (compile time: estimated cardinalities).
  /// Takes the table's lock once.
  void Resolve(int subq, const std::vector<std::vector<double>>& confs,
               std::vector<Row>* rows) SPARKOPT_EXCLUDES(mu_);

  /// The row's partition count under `theta_c`: ScanPartitionCount on a
  /// scan stage, the entry's own on a shuffle stage.
  static int PartitionCount(const Row& row, const ContextParams& theta_c);

  /// The row's stage scalars under `theta_c`: the entry's, with
  /// PartitionCount.
  static StageScalars Scalars(const Row& row, const ContextParams& theta_c);

  /// The partition runs of `stage` = Scalars(row, theta_c): the entry's
  /// on a shuffle stage; on a scan stage, the input spread over its
  /// partitions (SkewedPartitionSizes), written to `scratch`. At skew 0
  /// that is the single run UniformRun, which a reused `scratch` holds
  /// without allocating.
  static std::span<const PartitionRun> Runs(
      const Row& row, const StageScalars& stage,
      std::vector<PartitionRun>* scratch);

  /// Writes the row's FeatureLayout::Total() compile-time features to `f`
  /// from the same block writers StageFeatures calls: equal, bit for bit,
  /// to StageFeatures of BuildStage under conf with estimated
  /// cardinalities, no beta, no gamma and theta_p kept. `theta_c` is
  /// MakeContextFeatures of conf and its decoded theta_c, and `stage` =
  /// Scalars(row, decoded theta_c). The subQ, slice, cardinality and
  /// theta_c blocks are copied; only the partition terms are computed.
  /// Requires `with_features`.
  void WriteFeatures(int subq, const Row& row,
                     const ContextFeatures& theta_c,
                     const StageScalars& stage, double* f) const;

  /// Slices held (at most kMaxSlices).
  int num_slices() const SPARKOPT_EXCLUDES(mu_);

 private:
  /// The slice number of conf's slice, added if new; -1 past the cap.
  int FindOrAddSlice(const std::vector<double>& conf) SPARKOPT_REQUIRES(mu_);
  /// Plans the subQ's stage under `slice` into `build_`, then returns the
  /// held entry equal to it, or a new one.
  const Entry* BuildEntry(int subq, const Slice& slice)
      SPARKOPT_REQUIRES(mu_);
  /// Doubles the canonical index once it is half full.
  void GrowCanonicalIndex() SPARKOPT_REQUIRES(mu_);

  const SubQEvaluator* evaluator_;
  /// Per-subQ feature blocks, FeatureLayout::Total() per subQ (zeros
  /// outside them); empty without `with_features`. Set once.
  std::vector<double> subq_features_;

  mutable Mutex mu_;
  /// Slices, entries, runs and cardinality blocks; allocations never
  /// move.
  MonotonicArena arena_ SPARKOPT_GUARDED_BY(mu_);
  std::vector<const Slice*> slices_ SPARKOPT_GUARDED_BY(mu_);
  /// Open addressing over slice key hashes: slice number, or -1.
  std::vector<int> slice_index_ SPARKOPT_GUARDED_BY(mu_);
  /// entries_[subq][slice]; null until built.
  std::vector<std::vector<const Entry*>> entries_ SPARKOPT_GUARDED_BY(mu_);
  /// The distinct entries of every subQ, and open addressing over their
  /// content hashes: a position in canonical_, or -1.
  std::vector<const Entry*> canonical_ SPARKOPT_GUARDED_BY(mu_);
  std::vector<int> canonical_index_ SPARKOPT_GUARDED_BY(mu_);
  /// The stage BuildEntry plans into, its vectors reused.
  QueryStage build_ SPARKOPT_GUARDED_BY(mu_);
};

}  // namespace sparkopt
