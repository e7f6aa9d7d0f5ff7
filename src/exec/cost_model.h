#pragma once

#include <cstdint>

#include "exec/cluster.h"
#include "params/spark_params.h"
#include "physical/physical_plan.h"

/// \file cost_model.h
/// \brief Task-level cost model: the ground truth the simulator executes
/// and the predictive models learn.
///
/// A task's latency combines CPU work (operator weights scaled by the
/// partition's share of stage input), scan IO, shuffle read/write
/// (affected by compression k7, in-flight buffer k5, and the bypass-merge
/// threshold k6), memory-pressure spills (k2, k8 vs. the partition's
/// working set), and per-task scheduling overhead. Broadcast joins charge
/// a per-executor hash-build plus broadcast network transfer.

namespace sparkopt {

/// Calibration constants of the simulated engine.
struct CostModelParams {
  double cpu_rows_per_sec = 8.0e6;     ///< weighted rows/s per core
  double scan_mbps_per_task = 350.0;   ///< effective scan bandwidth/task
  double shuffle_write_mbps = 220.0;
  double shuffle_read_mbps = 260.0;
  double broadcast_mbps = 700.0;
  double compress_ratio = 0.38;        ///< compressed/uncompressed bytes
  double compress_cpu_factor = 1.18;   ///< CPU overhead of compression
  double task_overhead_s = 0.025;      ///< per-task scheduling overhead
  double stage_overhead_s = 0.12;      ///< per-stage launch overhead
  double spill_penalty = 1.8;          ///< slope of the spill multiplier
  double gc_pressure_penalty = 0.35;   ///< penalty at memory_fraction -> 1
  double noise_sigma = 0.04;           ///< log-normal task noise
};

/// \brief Computes individual task latencies and stage-level auxiliary
/// costs for one query stage under a context configuration.
class TaskCostModel {
 public:
  TaskCostModel(const ClusterSpec& cluster, const CostModelParams& params)
      : cluster_(cluster), params_(params) {}

  /// \brief What a task latency reads of its stage and theta_c, computed
  /// once per (stage, theta_c): the task formula below takes it with the
  /// task's input bytes. Each field is computed by the operations the
  /// formula would apply per task, so hoisting it moves no bit.
  struct TaskContext {
    double stage_bytes = 1.0;  ///< max(input_bytes, 1)
    double cpu_work = 0.0;
    double gc_factor = 1.0;    ///< memory.fraction's GC multiplier
    bool scan = false;
    double scan_mbps = 0.0;    ///< per-task scan bandwidth
    bool shuffle_read = false;
    double read_frac = 0.0;    ///< shuffle-read share of the input
    double read_mbps = 0.0;
    bool compress = false;
    bool writes = false;
    double write_io_s = 0.0;   ///< shuffle-write seconds, the same per task
    bool large_working_set = false;  ///< joins and sorts hold 1.6x
    double broadcast_mb = 0.0;
    double mem_mb = 0.0;       ///< execution memory per task
  };

  /// The per-(stage, theta_c) part of TaskLatency.
  TaskContext StageContext(const StageScalars& stage,
                           const ContextParams& theta_c) const;

  /// Noise-free latency (seconds) of one task of `ctx`'s stage that reads
  /// `part_bytes` input bytes: the one task formula.
  double TaskLatency(const TaskContext& ctx, double part_bytes) const;

  /// Latency (seconds) of task `task_idx` of `stage`, which reads
  /// `part_bytes` input bytes: the task formula under StageContext(stage,
  /// theta_c), times the noise. `seed` and `task_idx` key the
  /// deterministic noise stream; pass 0 noise via params.noise_sigma = 0.
  double TaskLatency(const StageScalars& stage, double part_bytes,
                     int task_idx, const ContextParams& theta_c,
                     uint64_t seed) const;

  /// One-off stage setup cost paid before tasks run (stage launch plus
  /// broadcast distribution and per-executor hash-table builds for BHJ).
  double StageSetupLatency(const StageScalars& stage,
                           const ContextParams& theta_c) const;

  /// Bytes this stage reads from disk + network (for the IO objective).
  double StageIoBytes(const StageScalars& stage,
                      const ContextParams& theta_c) const;

  /// Whether a task of `stage` reading `part_bytes` exceeds its execution
  /// memory and spills (the memory-pressure rule inside TaskLatency), for
  /// observability counters.
  bool TaskSpills(const StageScalars& stage, double part_bytes,
                  const ContextParams& theta_c) const;

  const CostModelParams& params() const { return params_; }
  const ClusterSpec& cluster() const { return cluster_; }

 private:
  ClusterSpec cluster_;
  CostModelParams params_;
};

}  // namespace sparkopt
