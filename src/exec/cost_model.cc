#include "exec/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace sparkopt {

namespace {
constexpr double kMb = 1024.0 * 1024.0;

// Whether a stage's tasks hold a working set larger than their input.
bool LargeWorkingSet(const StageScalars& stage) {
  return stage.has_join || stage.sort_work > 0.0;
}

// Memory a task reading `part_bytes` holds: joins and sorts keep a
// working set ~1.6x the partition, plus the resident broadcast table.
double WorkingSetMb(double part_bytes, bool large_working_set,
                    double broadcast_mb) {
  double working_mb = part_bytes / kMb;
  if (large_working_set) working_mb *= 1.6;
  return working_mb + broadcast_mb;
}

// Execution memory per task, with a 64 MB floor.
double TaskMemoryMb(const ContextParams& theta_c) {
  return std::max(theta_c.MemoryPerTaskMb(), 64.0);
}
}  // namespace

TaskCostModel::TaskContext TaskCostModel::StageContext(
    const StageScalars& stage, const ContextParams& theta_c) const {
  TaskContext ctx;
  ctx.stage_bytes = std::max(stage.input_bytes, 1.0);
  ctx.cpu_work = stage.cpu_work;
  // GC pressure: very high memory.fraction leaves little execution
  // headroom; very low wastes cache. Mild U-shape around 0.6.
  const double mf = theta_c.memory_fraction;
  ctx.gc_factor =
      1.0 + params_.gc_pressure_penalty * (mf - 0.6) * (mf - 0.6) / 0.09;

  ctx.scan = stage.is_scan_stage;
  if (ctx.scan) {
    // Scans compete for node disk bandwidth when many tasks per node.
    const double tasks_per_node =
        std::max(1.0, static_cast<double>(theta_c.TotalCores()) /
                          std::max(cluster_.nodes, 1));
    ctx.scan_mbps =
        std::min(params_.scan_mbps_per_task,
                 cluster_.disk_mbps / std::max(1.0, tasks_per_node * 0.25));
  }
  ctx.compress = theta_c.shuffle_compress;
  ctx.shuffle_read = stage.shuffle_read_bytes > 0.0;
  if (ctx.shuffle_read) {
    ctx.read_frac = stage.shuffle_read_bytes / ctx.stage_bytes;
    // Bigger in-flight buffers (k5) improve fetch pipelining, saturating
    // around 96 MB.
    ctx.read_mbps =
        params_.shuffle_read_mbps *
        (0.65 + 0.35 * std::min(
                           1.0, theta_c.reducer_max_size_in_flight_mb / 96.0));
  }
  ctx.writes = stage.exchanges_output && stage.output_bytes > 0.0;
  if (ctx.writes) {
    double write_bytes =
        stage.output_bytes / std::max(stage.num_partitions, 1);
    double write_mbps = params_.shuffle_write_mbps;
    // Bypass-merge (k6): when the downstream partition count is small the
    // sort-based merge is skipped, improving write throughput.
    if (stage.num_partitions <= theta_c.shuffle_bypass_merge_threshold) {
      write_mbps *= 1.25;
    }
    if (ctx.compress) write_bytes *= params_.compress_ratio;
    ctx.write_io_s = write_bytes / kMb / write_mbps;
  }
  ctx.large_working_set = LargeWorkingSet(stage);
  ctx.broadcast_mb = stage.broadcast_bytes / kMb;
  ctx.mem_mb = TaskMemoryMb(theta_c);
  return ctx;
}

double TaskCostModel::TaskLatency(const TaskContext& ctx,
                                  double part_bytes) const {
  // ---- CPU ---------------------------------------------------------------
  // Work is proportional to the partition's share of the stage input.
  const double share = part_bytes / ctx.stage_bytes;
  double cpu_s = ctx.cpu_work * share / params_.cpu_rows_per_sec;
  cpu_s *= ctx.gc_factor;

  // ---- IO ------------------------------------------------------------
  double io_s = 0.0;
  if (ctx.scan) io_s += part_bytes / kMb / ctx.scan_mbps;
  if (ctx.shuffle_read) {
    double read_bytes = part_bytes * ctx.read_frac;
    double cpu_factor = 1.0;
    if (ctx.compress) {
      read_bytes *= params_.compress_ratio;
      cpu_factor = params_.compress_cpu_factor;
    }
    io_s += read_bytes / kMb / ctx.read_mbps;
    cpu_s *= cpu_factor;
  }
  if (ctx.writes) io_s += ctx.write_io_s;

  // ---- Memory pressure -------------------------------------------------
  // A working set exceeding the per-task execution memory spills.
  const double working_mb =
      WorkingSetMb(part_bytes, ctx.large_working_set, ctx.broadcast_mb);
  double spill_mult = 1.0;
  if (working_mb > ctx.mem_mb) {
    spill_mult +=
        params_.spill_penalty * std::min(3.0, working_mb / ctx.mem_mb - 1.0);
  }
  return params_.task_overhead_s + (cpu_s + io_s) * spill_mult;
}

double TaskCostModel::TaskLatency(const StageScalars& stage,
                                  double part_bytes, int task_idx,
                                  const ContextParams& theta_c,
                                  uint64_t seed) const {
  double latency = TaskLatency(StageContext(stage, theta_c), part_bytes);
  if (params_.noise_sigma > 0.0) {
    Rng rng(HashCombine(seed, HashCombine(stage.id * 1315423911ULL,
                                          static_cast<uint64_t>(task_idx))));
    latency *= rng.LogNormal(0.0, params_.noise_sigma);
  }
  return latency;
}

bool TaskCostModel::TaskSpills(const StageScalars& stage,
                               double part_bytes,
                               const ContextParams& theta_c) const {
  return WorkingSetMb(part_bytes, LargeWorkingSet(stage),
                      stage.broadcast_bytes / kMb) > TaskMemoryMb(theta_c);
}

double TaskCostModel::StageSetupLatency(const StageScalars& stage,
                                        const ContextParams& theta_c) const {
  double setup = params_.stage_overhead_s;
  if (stage.broadcast_bytes > 0.0) {
    // Driver collects the build side, then every executor pulls a copy;
    // contention grows with sqrt(instances).
    const double copies = std::sqrt(
        std::max(1.0, static_cast<double>(theta_c.executor_instances)));
    setup += stage.broadcast_bytes * copies / kMb / params_.broadcast_mbps;
    // Per-executor hash-table build (rows approximated by bytes / 96B).
    const double build_rows = stage.broadcast_bytes / 96.0;
    setup += build_rows / params_.cpu_rows_per_sec;
  }
  return setup;
}

double TaskCostModel::StageIoBytes(const StageScalars& stage,
                                   const ContextParams& theta_c) const {
  double io = 0.0;
  if (stage.is_scan_stage) io += stage.input_bytes;
  double shuffle = stage.shuffle_read_bytes;
  double write = stage.exchanges_output ? stage.output_bytes : 0.0;
  if (theta_c.shuffle_compress) {
    shuffle *= params_.compress_ratio;
    write *= params_.compress_ratio;
  }
  io += shuffle + write;
  io += stage.broadcast_bytes *
        std::max(1, theta_c.executor_instances);
  return io;
}

}  // namespace sparkopt
