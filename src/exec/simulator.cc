#include "exec/simulator.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "analysis/invariants.h"
#include "common/check.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace sparkopt {

namespace {

struct PendingStage {
  const QueryStage* stage = nullptr;
  int deps_remaining = 0;
  int next_task = 0;
  // Cursor over stage->partitions: the run holding task next_task, and
  // how many of that run's tasks were dispatched.
  size_t run = 0;
  int run_dispatched = 0;
  int tasks_done = 0;
  double ready_time = 0.0;
  double setup_done_time = 0.0;
  StageExecution record;
  bool started = false;
  bool done = false;
};

}  // namespace

QueryExecution Simulator::RunStages(const PhysicalPlan& plan,
                                    const std::vector<int>& stage_ids,
                                    const ContextParams& theta_c,
                                    uint64_t noise_seed,
                                    uint64_t interleave_seed) const {
  QueryExecution result;
  obs::Span span("sim.run_stages");
  const int total_cores =
      std::min(theta_c.TotalCores(), cost_model_.cluster().TotalCores());

  // Index the subset.
  std::vector<int> in_subset(plan.stages.size(), -1);
  std::vector<PendingStage> pending;
  pending.reserve(stage_ids.size());
  for (int sid : stage_ids) {
    SPARKOPT_DCHECK(sid >= 0 && sid < static_cast<int>(plan.stages.size()))
        << "stage id " << sid << " outside the plan's "
        << plan.stages.size() << " stages";
    SPARKOPT_DCHECK_LT(in_subset[sid], 0)
        << "stage id " << sid << " listed twice in the subset";
    in_subset[sid] = static_cast<int>(pending.size());
    PendingStage ps;
    ps.stage = &plan.stages[sid];
    ps.record.stage_id = sid;
    ps.record.subq_id = plan.stages[sid].subq_id;
    ps.record.num_tasks = plan.stages[sid].num_partitions;
    pending.push_back(ps);
  }
  // Dependency counts restricted to the subset.
  for (auto& ps : pending) {
    for (int d : ps.stage->deps) {
      if (in_subset[d] >= 0) ++ps.deps_remaining;
    }
    for (int d : ps.stage->broadcast_deps) {
      if (in_subset[d] >= 0) ++ps.deps_remaining;
    }
  }

  Rng interleave_rng(interleave_seed == 0 ? 0xC0FFEE : interleave_seed);

  // Event simulation: cores free at times in a min-heap; ready stages hold
  // task queues. Tasks are dispatched round-robin over ready stages (AQE
  // behaviour); a nonzero interleave_seed randomizes the stage order each
  // dispatch round (AQE-off behaviour).
  double now = 0.0;
  std::priority_queue<double, std::vector<double>, std::greater<>> cores;
  for (int i = 0; i < total_cores; ++i) cores.push(0.0);

  // Stage completion bookkeeping. A degree-count pass sizes each
  // dependents list exactly, so the fill pass below never reallocates —
  // this path runs once per simulated (sub)query and the trainer/AQE
  // loops simulate thousands of them.
  std::vector<std::vector<int>> dependents(pending.size());
  {
    std::vector<int> degree(pending.size(), 0);
    for (const auto& ps : pending) {
      for (int d : ps.stage->deps) {
        if (in_subset[d] >= 0) ++degree[in_subset[d]];
      }
      for (int d : ps.stage->broadcast_deps) {
        if (in_subset[d] >= 0) ++degree[in_subset[d]];
      }
    }
    for (size_t i = 0; i < pending.size(); ++i) {
      dependents[i].reserve(degree[i]);
    }
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    for (int d : pending[i].stage->deps) {
      if (in_subset[d] >= 0) dependents[in_subset[d]].push_back(i);
    }
    for (int d : pending[i].stage->broadcast_deps) {
      if (in_subset[d] >= 0) dependents[in_subset[d]].push_back(i);
    }
  }

  double finished_task_time_sum = 0.0;
  int finished_tasks = 0;

  auto count_waiting = [&]() {
    double w = 0.0;
    for (const auto& ps : pending) {
      if (!ps.done && ps.deps_remaining == 0) {
        w += ps.stage->num_partitions - ps.next_task;
      }
    }
    return w;
  };
  auto count_running = [&](double t) {
    // Approximation: cores busy past time t.
    (void)t;
    return static_cast<double>(total_cores - 1);
  };

  int stages_left = static_cast<int>(pending.size());
  // Ready list reused across dispatch rounds (cleared, never freed).
  std::vector<int> ready;
  ready.reserve(pending.size());
  // Track per-core next-free times; dispatch loop.
  while (stages_left > 0) {
    // Collect ready stages with remaining tasks.
    ready.clear();
    for (size_t i = 0; i < pending.size(); ++i) {
      auto& ps = pending[i];
      if (ps.done || ps.deps_remaining > 0) continue;
      if (!ps.started) {
        ps.started = true;
        ps.ready_time = std::max(now, ps.ready_time);
        ps.setup_done_time =
            ps.ready_time +
            cost_model_.StageSetupLatency(*ps.stage, theta_c);
        ps.record.start = ps.ready_time;
        ps.record.parallel_waiting_tasks = count_waiting();
        ps.record.parallel_running_tasks = count_running(now);
        ps.record.finished_task_mean_s =
            finished_tasks > 0 ? finished_task_time_sum / finished_tasks
                               : 0.0;
        ps.record.io_bytes = cost_model_.StageIoBytes(*ps.stage, theta_c);
      }
      if (ps.next_task < ps.stage->num_partitions) {
        ready.push_back(static_cast<int>(i));
      }
    }
    if (ready.empty()) {
      // All runnable tasks dispatched; wait for completions (handled via
      // core pops when tasks were assigned). If nothing is in flight and
      // nothing is ready, the subset had an unsatisfiable dependency.
      bool any_in_flight = false;
      for (const auto& ps : pending) {
        if (ps.started && !ps.done) {
          any_in_flight = true;
          break;
        }
      }
      if (!any_in_flight) break;  // defensive: avoid infinite loop
      // Advance time to the next core completion to let stages finish.
      now = cores.top();
      // Completion processing happens in the per-task loop below; if we
      // are here every task was dispatched, so finish stages directly.
      for (auto& ps : pending) {
        if (ps.started && !ps.done &&
            ps.tasks_done == ps.stage->num_partitions) {
          ps.done = true;
        }
      }
      break;
    }
    if (interleave_seed != 0) interleave_rng.Shuffle(&ready);

    // Dispatch one task per ready stage per round (round-robin fairness).
    for (int pi : ready) {
      auto& ps = pending[pi];
      if (ps.next_task >= ps.stage->num_partitions) continue;
      const int task = ps.next_task++;
      SPARKOPT_DCHECK_LT(ps.run, ps.stage->partitions.size())
          << "stage " << ps.stage->id << " has fewer partitions than tasks";
      const PartitionRun& run = ps.stage->partitions[ps.run];
      if (++ps.run_dispatched == run.count) {
        ++ps.run;
        ps.run_dispatched = 0;
      }
      const double dur = cost_model_.TaskLatency(*ps.stage, run.bytes, task,
                                                 theta_c, noise_seed);
      const double core_free = cores.top();
      cores.pop();
      const double start = std::max({core_free, ps.setup_done_time});
      const double end = start + dur;
      cores.push(end);
      now = std::max(now, start);
      ps.record.task_time_sum += dur;
      finished_task_time_sum += dur;
      ++finished_tasks;
      ++ps.tasks_done;
      ps.record.end = std::max(ps.record.end, end);
      if (ps.tasks_done == ps.stage->num_partitions) {
        ps.done = true;
        --stages_left;
        for (int dep : dependents[pi]) {
          auto& dp = pending[dep];
          --dp.deps_remaining;
          // Ready no earlier than the latest dependency end — not the end
          // of whichever dependency happened to be processed last.
          dp.ready_time = std::max(dp.ready_time, ps.record.end);
        }
      }
    }
  }

  // Aggregate.
  double makespan = 0.0;
  for (auto& ps : pending) {
    ps.record.analytical_latency =
        ps.record.task_time_sum / std::max(total_cores, 1);
    makespan = std::max(makespan, ps.record.end);
    result.analytical_latency += ps.record.analytical_latency;
    result.io_bytes += ps.record.io_bytes;
    result.stages.push_back(ps.record);
  }
  result.latency = makespan;

  // Observability: per-session execution counters. Spill detection walks
  // every run of partitions, so the loop runs only when a sink is
  // attached.
  if (obs::Session* sess = obs::Session::Current()) {
    uint64_t tasks = 0, spilled = 0;
    double shuffle_bytes = 0.0;
    for (const auto& ps : pending) {
      tasks += static_cast<uint64_t>(ps.record.num_tasks);
      shuffle_bytes += ps.stage->shuffle_read_bytes;
      for (const PartitionRun& run : ps.stage->partitions) {
        if (cost_model_.TaskSpills(*ps.stage, run.bytes, theta_c)) {
          spilled += static_cast<uint64_t>(run.count);
        }
      }
    }
    auto& m = sess->metrics();
    m.counter("sim.stages").Add(pending.size());
    m.counter("sim.tasks").Add(tasks);
    m.counter("sim.spilled_tasks").Add(spilled);
    m.counter("sim.runs").Add(1);
    m.gauge("sim.shuffle_read_bytes").Add(shuffle_bytes);
    m.gauge("sim.io_bytes").Add(result.io_bytes);
    m.gauge("sim.last_makespan_s").Set(makespan);
    m.gauge("sim.last_stage_count").Set(static_cast<double>(pending.size()));
    span.Arg("stages", static_cast<double>(pending.size()));
    span.Arg("tasks", static_cast<double>(tasks));
    span.Arg("makespan_s", makespan);
  }
  FinalizeCost(theta_c, &result);
  SPARKOPT_VERIFY_TRACE(result, &plan, total_cores, "Simulator::RunStages");
  return result;
}

QueryExecution Simulator::RunAll(const PhysicalPlan& plan,
                                 const ContextParams& theta_c,
                                 uint64_t noise_seed,
                                 uint64_t interleave_seed) const {
  std::vector<int> ids;
  ids.reserve(plan.stages.size());
  for (const auto& st : plan.stages) ids.push_back(st.id);
  QueryExecution exec =
      RunStages(plan, ids, theta_c, noise_seed, interleave_seed);
  exec.smj = plan.CountJoins(JoinAlgo::kSortMergeJoin);
  exec.shj = plan.CountJoins(JoinAlgo::kShuffledHashJoin);
  exec.bhj = plan.CountJoins(JoinAlgo::kBroadcastHashJoin);
  return exec;
}

void Simulator::FinalizeCost(const ContextParams& theta_c,
                             QueryExecution* exec) const {
  const int cores =
      std::min(theta_c.TotalCores(), cost_model_.cluster().TotalCores());
  const double mem_gb =
      theta_c.executor_memory_gb * theta_c.executor_instances;
  exec->cpu_hours = cores * exec->latency / 3600.0;
  exec->mem_gb_hours = mem_gb * exec->latency / 3600.0;
  exec->cost = CloudCost(prices_, cores, mem_gb, exec->latency,
                         exec->io_bytes / (1024.0 * 1024.0 * 1024.0));
}

}  // namespace sparkopt
