#include "analysis/physical_plan_verifier.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "physical/physical_plan.h"
#include "plan/logical_plan.h"

namespace sparkopt {
namespace analysis {

namespace {

std::string StageLoc(int id) { return "stage " + std::to_string(id); }

void CheckDepLists(const PhysicalPlan& plan, VerifyReport* report) {
  const int n = static_cast<int>(plan.stages.size());
  for (const QueryStage& st : plan.stages) {
    const std::string loc = StageLoc(st.id);
    for (const auto* deps : {&st.deps, &st.broadcast_deps}) {
      const char* kind = deps == &st.deps ? "dep" : "broadcast_dep";
      for (int d : *deps) {
        if (d < 0 || d >= n) {
          report->Add(StatusCode::kOutOfRange, loc,
                      std::string(kind) + " " + std::to_string(d) +
                          " outside [0, " + std::to_string(n) + ")");
        } else if (d == st.id) {
          report->Add(StatusCode::kOutOfRange, loc,
                      std::string(kind) + " points at the stage itself");
        }
      }
      for (size_t i = 0; i < deps->size(); ++i) {
        for (size_t j = i + 1; j < deps->size(); ++j) {
          if ((*deps)[i] == (*deps)[j]) {
            report->Add(StatusCode::kOutOfRange, loc,
                        std::string("duplicate ") + kind + " " +
                            std::to_string((*deps)[i]));
          }
        }
      }
    }
    for (int d : st.deps) {
      if (std::find(st.broadcast_deps.begin(), st.broadcast_deps.end(), d) !=
          st.broadcast_deps.end()) {
        report->Add(StatusCode::kInvalidArgument, loc,
                    "stage " + std::to_string(d) +
                        " is both a shuffle and a broadcast dependency");
      }
    }
  }
}

void CheckAcyclic(const PhysicalPlan& plan, VerifyReport* report) {
  const int n = static_cast<int>(plan.stages.size());
  std::vector<int> in_deg(n, 0);
  std::vector<std::vector<int>> out(n);
  for (const QueryStage& st : plan.stages) {
    if (st.id < 0 || st.id >= n) continue;
    for (const auto* deps : {&st.deps, &st.broadcast_deps}) {
      for (int d : *deps) {
        if (d >= 0 && d < n && d != st.id) {
          out[d].push_back(st.id);
          ++in_deg[st.id];
        }
      }
    }
  }
  std::vector<int> frontier;
  for (int i = 0; i < n; ++i) {
    if (in_deg[i] == 0) frontier.push_back(i);
  }
  int visited = 0;
  while (!frontier.empty()) {
    const int u = frontier.back();
    frontier.pop_back();
    ++visited;
    for (int v : out[u]) {
      if (--in_deg[v] == 0) frontier.push_back(v);
    }
  }
  if (visited != n) {
    report->Add(StatusCode::kFailedPrecondition, "stage DAG",
                "stage dependency graph contains a cycle (" +
                    std::to_string(n - visited) + " stage(s) unreachable)");
  }
}

// QueryStage::partitions must be canonical runs covering every task.
void CheckPartitionRuns(const QueryStage& st, const std::string& loc,
                        VerifyReport* report) {
  int64_t tasks = 0;
  for (size_t i = 0; i < st.partitions.size(); ++i) {
    const PartitionRun& run = st.partitions[i];
    const std::string where = "partition run " + std::to_string(i);
    if (run.count < 1) {
      report->Add(StatusCode::kInternal, loc,
                  where + " count " + std::to_string(run.count) + " < 1");
    }
    tasks += run.count;
    if (run.bytes < 0.0 || !std::isfinite(run.bytes)) {
      report->Add(StatusCode::kOutOfRange, loc,
                  where + " size " + std::to_string(run.bytes) +
                      " is negative or non-finite");
    }
    if (i > 0 && run.bytes == st.partitions[i - 1].bytes) {
      report->Add(StatusCode::kInternal, loc,
                  where + " repeats the size of the run before it");
    }
  }
  if (tasks != st.num_partitions) {
    report->Add(StatusCode::kInternal, loc,
                "num_partitions " + std::to_string(st.num_partitions) +
                    " != partition run counts sum " + std::to_string(tasks));
  }
}

void CheckStageFields(const PhysicalPlan& plan, VerifyReport* report) {
  int root_stages = 0;
  for (size_t i = 0; i < plan.stages.size(); ++i) {
    const QueryStage& st = plan.stages[i];
    const std::string loc = StageLoc(static_cast<int>(i));
    if (st.id != static_cast<int>(i)) {
      report->Add(StatusCode::kInternal, loc,
                  "stored id " + std::to_string(st.id) +
                      " does not match storage index");
    }
    if (st.subq_id < 0) {
      report->Add(StatusCode::kInternal, loc, "stage has no subq_id");
    }
    if (st.op_ids.empty()) {
      report->Add(StatusCode::kFailedPrecondition, loc,
                  "stage executes no operators");
    }
    if (st.num_partitions < 1) {
      report->Add(StatusCode::kInternal, loc,
                  "num_partitions " + std::to_string(st.num_partitions) +
                      " < 1");
    }
    CheckPartitionRuns(st, loc, report);
    const std::pair<const char*, double> totals[] = {
        {"input_rows", st.input_rows},
        {"input_bytes", st.input_bytes},
        {"output_rows", st.output_rows},
        {"output_bytes", st.output_bytes},
        {"shuffle_read_bytes", st.shuffle_read_bytes},
        {"broadcast_bytes", st.broadcast_bytes},
        {"cpu_work", st.cpu_work},
        {"sort_work", st.sort_work},
    };
    for (const auto& [field, v] : totals) {
      if (v < 0.0 || !std::isfinite(v)) {
        report->Add(StatusCode::kOutOfRange, loc,
                    std::string(field) + " " + std::to_string(v) +
                        " is negative or non-finite");
      }
    }
    if (!st.exchanges_output) ++root_stages;
  }
  if (!plan.stages.empty() && root_stages != 1) {
    report->Add(StatusCode::kFailedPrecondition, "stage DAG",
                "expected exactly one root stage (exchanges_output = "
                "false), found " +
                    std::to_string(root_stages));
  }
}

// Maps each op id to the stage executing it; -1 when absent, -2 when
// executed by more than one stage.
std::vector<int> StageOfOp(const PhysicalPlan& plan, int num_ops) {
  std::vector<int> stage_of(num_ops, -1);
  for (const QueryStage& st : plan.stages) {
    for (int op : st.op_ids) {
      if (op < 0 || op >= num_ops) continue;
      stage_of[op] = stage_of[op] == -1 ? st.id : -2;
    }
  }
  return stage_of;
}

void CheckOpCoverage(const PhysicalPlan& plan, const LogicalPlan& lplan,
                     VerifyReport* report) {
  const int num_ops = static_cast<int>(lplan.num_ops());
  for (const QueryStage& st : plan.stages) {
    for (int op : st.op_ids) {
      if (op < 0 || op >= num_ops) {
        report->Add(StatusCode::kOutOfRange, StageLoc(st.id),
                    "op id " + std::to_string(op) + " outside [0, " +
                        std::to_string(num_ops) + ")");
      }
    }
  }
  std::vector<int> first_stage(num_ops, -1);
  for (const QueryStage& st : plan.stages) {
    for (int op : st.op_ids) {
      if (op < 0 || op >= num_ops) continue;
      if (first_stage[op] != -1) {
        report->Add(StatusCode::kFailedPrecondition,
                    "op " + std::to_string(op),
                    "executed by both stage " +
                        std::to_string(first_stage[op]) + " and stage " +
                        std::to_string(st.id));
      } else {
        first_stage[op] = st.id;
      }
    }
  }
  for (int op = 0; op < num_ops; ++op) {
    if (first_stage[op] == -1) {
      report->Add(StatusCode::kFailedPrecondition,
                  "op " + std::to_string(op),
                  "logical operator not executed by any stage");
    }
  }
}

void CheckJoinDecisions(const PhysicalPlan& plan, const LogicalPlan* lplan,
                        VerifyReport* report) {
  const int num_ops =
      lplan != nullptr ? static_cast<int>(lplan->num_ops()) : -1;
  for (const JoinDecision& jd : plan.join_decisions) {
    const std::string loc = "join decision op " + std::to_string(jd.op_id);
    if (lplan != nullptr) {
      if (jd.op_id < 0 || jd.op_id >= num_ops) {
        report->Add(StatusCode::kOutOfRange, loc,
                    "op id outside [0, " + std::to_string(num_ops) + ")");
        continue;
      }
      if (lplan->op(jd.op_id).type != OpType::kJoin) {
        report->Add(StatusCode::kInvalidArgument, loc,
                    "decision references a non-join operator");
      }
    }
    if (jd.algo != JoinAlgo::kBroadcastHashJoin || jd.build_op < 0) {
      continue;
    }
    // BHJ: the build side must reach the join's stage via broadcast, not
    // via shuffle.
    const std::vector<int> stage_of = StageOfOp(
        plan, std::max(num_ops, std::max(jd.op_id, jd.build_op) + 1));
    const int join_stage = jd.op_id >= 0 &&
                                   jd.op_id < static_cast<int>(stage_of.size())
                               ? stage_of[jd.op_id]
                               : -1;
    const int build_stage =
        jd.build_op < static_cast<int>(stage_of.size())
            ? stage_of[jd.build_op]
            : -1;
    if (join_stage < 0 || build_stage < 0 || join_stage == build_stage) {
      continue;  // merged or unresolvable; other checks cover those
    }
    const QueryStage& st = plan.stages[join_stage];
    if (std::find(st.deps.begin(), st.deps.end(), build_stage) !=
        st.deps.end()) {
      report->Add(StatusCode::kFailedPrecondition, StageLoc(join_stage),
                  "BHJ build side (stage " + std::to_string(build_stage) +
                      ") arrives over a shuffle dependency");
    }
    if (std::find(st.broadcast_deps.begin(), st.broadcast_deps.end(),
                  build_stage) == st.broadcast_deps.end()) {
      report->Add(StatusCode::kFailedPrecondition, StageLoc(join_stage),
                  "BHJ build side (stage " + std::to_string(build_stage) +
                      ") is not a broadcast dependency");
    }
  }
}

}  // namespace

bool PhysicalPlanVerifier::applicable(const VerifyInput& in) const {
  return in.physical_plan != nullptr;
}

VerifyReport PhysicalPlanVerifier::Verify(const VerifyInput& in) const {
  VerifyReport report = MakeReport(in);
  const PhysicalPlan& plan = *in.physical_plan;
  CheckStageFields(plan, &report);
  CheckDepLists(plan, &report);
  CheckAcyclic(plan, &report);
  if (in.logical_plan != nullptr) {
    CheckOpCoverage(plan, *in.logical_plan, &report);
  }
  CheckJoinDecisions(plan, in.logical_plan, &report);
  return report;
}

}  // namespace analysis
}  // namespace sparkopt
