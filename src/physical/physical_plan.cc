#include "physical/physical_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>

#include "analysis/invariants.h"
#include "common/check.h"

namespace sparkopt {

const char* JoinAlgoName(JoinAlgo a) {
  switch (a) {
    case JoinAlgo::kSortMergeJoin: return "SMJ";
    case JoinAlgo::kShuffledHashJoin: return "SHJ";
    case JoinAlgo::kBroadcastHashJoin: return "BHJ";
  }
  return "?";
}

std::vector<int> PhysicalPlan::ExecutionOrder() const {
  const int n = static_cast<int>(stages.size());
  std::vector<int> in_deg(n, 0);
  std::vector<std::vector<int>> out(n);
  for (const auto& st : stages) {
    for (int d : st.deps) {
      out[d].push_back(st.id);
      ++in_deg[st.id];
    }
    for (int d : st.broadcast_deps) {
      out[d].push_back(st.id);
      ++in_deg[st.id];
    }
  }
  std::vector<int> order, frontier;
  for (int i = 0; i < n; ++i) {
    if (in_deg[i] == 0) frontier.push_back(i);
  }
  std::sort(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.erase(frontier.begin());
    order.push_back(u);
    for (int v : out[u]) {
      if (--in_deg[v] == 0) {
        frontier.insert(
            std::upper_bound(frontier.begin(), frontier.end(), v), v);
      }
    }
  }
  return order;
}

int PhysicalPlan::CountJoins(JoinAlgo algo) const {
  int n = 0;
  for (const auto& jd : join_decisions) {
    if (jd.algo == algo) ++n;
  }
  return n;
}

namespace {

// Appends `count` tasks of `bytes` to canonical runs, growing the last run
// when its bytes are equal.
void AppendRun(std::vector<PartitionRun>* runs, int count, double bytes) {
  if (!runs->empty() && runs->back().bytes == bytes) {
    runs->back().count += count;
  } else {
    runs->push_back({count, bytes});
  }
}

// AppendRun for a rewrite in place: `run` replaces input runs already
// read, and `*kept` counts the canonical runs written so far.
void KeepRun(std::vector<PartitionRun>* runs, size_t* kept,
             PartitionRun run) {
  if (*kept > 0 && (*runs)[*kept - 1].bytes == run.bytes) {
    (*runs)[*kept - 1].count += run.count;
  } else {
    (*runs)[(*kept)++] = run;
  }
}

// The expanded sizes' value at ascending rank n / 2 (their median). Sizes
// from SkewedPartitionSizes never increase, so their runs need no sort.
double MedianBytes(const std::vector<PartitionRun>& runs) {
  int64_t n = 0;
  for (const PartitionRun& r : runs) n += r.count;
  const int64_t rank = n / 2;
  const auto at_rank = [rank](auto first, auto last) {
    int64_t seen = 0;
    for (; first != last; ++first) {
      seen += first->count;
      if (seen > rank) break;
    }
    return first->bytes;
  };
  const auto larger = [](const PartitionRun& a, const PartitionRun& b) {
    return a.bytes > b.bytes;
  };
  if (std::is_sorted(runs.begin(), runs.end(), larger)) {
    return at_rank(runs.rbegin(), runs.rend());
  }
  std::vector<PartitionRun> sorted = runs;
  std::sort(sorted.begin(), sorted.end(),
            [](const PartitionRun& a, const PartitionRun& b) {
              return a.bytes < b.bytes;
            });
  return at_rank(sorted.begin(), sorted.end());
}

// Cap on any stage's planned partition count.
constexpr int kMaxStagePartitions = 4096;

int TaskCount(const std::vector<PartitionRun>& runs) {
  int n = 0;
  for (const PartitionRun& r : runs) n += r.count;
  return n;
}

}  // namespace

PartitionRun UniformRun(double total_bytes, int n) {
  return {n, total_bytes * (1.0 / n)};
}

std::vector<PartitionRun> SkewedPartitionSizes(double total_bytes, int n,
                                               double z) {
  n = std::max(n, 1);
  // At z = 0 every weight is exactly 1 and their sum exactly n, so each
  // size is total_bytes * (1.0 / n), as the loop below would compute.
  if (z == 0.0) return {UniformRun(total_bytes, n)};
  // Zipf-like weights (i+1)^{-2z}: z=0 -> uniform, z=1 -> strong skew.
  std::vector<PartitionRun> runs;
  runs.reserve(n);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double w = std::pow(static_cast<double>(i + 1), -2.0 * z);
    sum += w;
    AppendRun(&runs, 1, w);
  }
  // Equal weights give equal sizes, and distinct ones may round to equal
  // sizes, so the runs are merged again.
  size_t kept = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    KeepRun(&runs, &kept,
            {runs[i].count, total_bytes * (runs[i].bytes / sum)});
  }
  runs.resize(kept);
  return runs;
}

std::vector<PartitionRun> ApplySkewSplit(std::vector<PartitionRun> runs,
                                         double threshold_mb, double factor,
                                         double advisory_mb) {
  if (runs.empty()) return runs;
  const double mb = 1024.0 * 1024.0;
  const double median = MedianBytes(runs);
  const double limit =
      std::max(threshold_mb * mb, factor * median);
  const double chunk = std::max(advisory_mb * mb, 1.0 * mb);
  // Each run maps to one run, so the split rewrites `runs` in place.
  int64_t tasks = 0;
  size_t kept = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    PartitionRun piece = runs[i];
    if (piece.bytes > limit && piece.bytes > chunk) {
      // Every partition of the run splits into the same pieces.
      const double pieces = std::ceil(piece.bytes / chunk);
      SPARKOPT_CHECK_LE(pieces * piece.count,
                        std::numeric_limits<int>::max())
          << "skew split of " << piece.count << " partitions of "
          << piece.bytes << " bytes overflows the task count";
      piece = {piece.count * static_cast<int>(pieces),
               piece.bytes / static_cast<int>(pieces)};
    }
    tasks += piece.count;
    SPARKOPT_CHECK_LE(tasks, std::numeric_limits<int>::max())
        << "skew split overflows the task count";
    KeepRun(&runs, &kept, piece);
  }
  runs.resize(kept);
  return runs;
}

std::vector<PartitionRun> ApplyCoalesce(std::vector<PartitionRun> runs,
                                        double advisory_mb,
                                        double small_factor,
                                        double min_size_mb) {
  const double mb = 1024.0 * 1024.0;
  const double small =
      std::max(min_size_mb * mb, small_factor * advisory_mb * mb);
  const double target = advisory_mb * mb;
  std::vector<PartitionRun> out;
  double acc = 0.0;
  for (const PartitionRun& r : runs) {
    const double b = r.bytes;
    if (!(b < small)) {
      AppendRun(&out, r.count, b);
      continue;
    }
    // Replay the accumulator one partition at a time until the group open
    // on entry closes (acc back at 0).
    int left = r.count;
    while (left > 0 && acc != 0.0) {
      acc += b;
      --left;
      if (acc >= target) {
        AppendRun(&out, 1, acc);
        acc = 0.0;
      }
    }
    if (left == 0) continue;
    // From 0, every group adds the same `b`s, so each closes after the
    // same k partitions with the same sum: replay one group, emit the
    // repeats as one run, then replay the remainder.
    double sum = 0.0;
    int k = 0;
    do {
      sum += b;
      ++k;
    } while (k < left && sum < target);
    if (sum < target) {
      acc = sum;
      continue;
    }
    AppendRun(&out, left / k, sum);
    for (int i = left % k; i > 0; --i) acc += b;
  }
  if (acc > 0.0) AppendRun(&out, 1, acc);
  if (out.empty()) out.push_back({1, 0.0});
  return out;
}

JoinDecision ChooseJoin(const LogicalOperator& join, const PlanParams& tp,
                        const BelievedCardinality& card) {
  const double mb = 1024.0 * 1024.0;
  int build = join.children[0];
  int probe = join.children[1];
  if (card.bytes(build) > card.bytes(probe)) std::swap(build, probe);
  const double build_mb = card.bytes(build) / mb;
  JoinAlgo algo = JoinAlgo::kSortMergeJoin;
  // Non-empty partition ratio of the build side under the planned
  // shuffle partition count: demote BHJ when too few partitions are
  // non-empty relative to s2 (AQE demotion rule).
  const double non_empty_ratio = std::min(
      1.0, card.rows(build) / std::max(1.0, double(tp.shuffle_partitions)));
  if (build_mb <= tp.broadcast_join_threshold_mb &&
      non_empty_ratio >= tp.non_empty_partition_ratio) {
    algo = JoinAlgo::kBroadcastHashJoin;
  } else if (build_mb <= tp.shuffled_hash_join_threshold_mb) {
    algo = JoinAlgo::kShuffledHashJoin;
  }
  return {join.id, algo, build_mb, build};
}

int ScanPartitionCount(double input_bytes, int default_parallelism,
                       const PlanParams& tp) {
  const double mb = 1024.0 * 1024.0;
  // Spark's file-split formula: maxSplitBytes = min(s8,
  // max(s9, total/defaultParallelism)).
  const double total = std::max(input_bytes, 1.0);
  const double split =
      std::min(tp.max_partition_bytes_mb * mb,
               std::max(tp.file_open_cost_mb * mb,
                        total / std::max(default_parallelism, 1)));
  const int n =
      std::max(1, static_cast<int>(std::ceil(total / std::max(split, 1.0))));
  return std::min(n, kMaxStagePartitions);
}

void PartitionStage(const ContextParams& theta_c, const PlanParams& tp,
                    const StageParams& ts, double skew, QueryStage* st) {
  st->num_partitions =
      st->is_scan_stage
          ? ScanPartitionCount(st->input_bytes, theta_c.default_parallelism,
                               tp)
          : std::min(std::max(1, tp.shuffle_partitions),
                     kMaxStagePartitions);
  st->partitions =
      SkewedPartitionSizes(st->input_bytes, st->num_partitions, skew);
  if (!st->is_scan_stage) {
    // AQE post-shuffle optimizations on this stage's input partitions.
    if (st->has_join) {
      st->partitions = ApplySkewSplit(
          std::move(st->partitions), tp.skewed_partition_threshold_mb,
          tp.skewed_partition_factor, tp.advisory_partition_size_mb);
    }
    st->partitions = ApplyCoalesce(
        std::move(st->partitions), tp.advisory_partition_size_mb,
        ts.rebalance_small_factor, ts.coalesce_min_partition_size_mb);
    st->num_partitions = TaskCount(st->partitions);
  }
}

namespace {

// Per-row CPU weight by operator type (arbitrary but fixed units; the
// cost model converts to seconds via its rows-per-second throughput).
double OpWeight(OpType t) {
  switch (t) {
    case OpType::kScan: return 1.0;
    case OpType::kFilter: return 0.25;
    case OpType::kProject: return 0.15;
    case OpType::kJoin: return 0.0;  // handled per algorithm
    case OpType::kAggregate: return 0.9;
    case OpType::kSort: return 0.0;  // handled as n log n below
    case OpType::kLimit: return 0.05;
    case OpType::kUnion: return 0.1;
    default: return 0.5;
  }
}

double NLogN(double n) {
  return n * std::log2(std::max(n, 2.0));
}

}  // namespace

PhysicalPlanner::PhysicalPlanner(const LogicalPlan* plan,
                                 std::vector<SubQuery> subqs)
    : plan_(plan), subqs_(std::move(subqs)), subq_of_(plan->num_ops(), -1) {
  for (const auto& sq : subqs_) {
    for (int op : sq.op_ids) subq_of_[op] = sq.id;
  }
  for (size_t i = 0; i < subq_of_.size(); ++i) {
    SPARKOPT_DCHECK_GE(subq_of_[i], 0)
        << "op " << i << " is not covered by the subQ decomposition";
  }
}

Result<PhysicalPlan> PhysicalPlanner::Plan(
    const ContextParams& theta_c,
    const std::vector<PlanParams>& theta_p_per_subq,
    const std::vector<StageParams>& theta_s_per_subq,
    CardinalitySource source,
    const std::vector<bool>& completed_subqs) const {
  const auto& plan = *plan_;
  const size_t m = subqs_.size();
  if (theta_p_per_subq.empty() || theta_s_per_subq.empty()) {
    return Status::InvalidArgument("need at least one theta_p and theta_s");
  }
  auto theta_p_of = [&](int subq) -> const PlanParams& {
    return theta_p_per_subq[theta_p_per_subq.size() == 1
                                ? 0
                                : std::min<size_t>(subq, m - 1)];
  };
  auto theta_s_of = [&](int subq) -> const StageParams& {
    return theta_s_per_subq[theta_s_per_subq.size() == 1
                                ? 0
                                : std::min<size_t>(subq, m - 1)];
  };

  const BelievedCardinality card(plan, subq_of_, source, &completed_subqs);

  // ---- 1. Join algorithm decisions ------------------------------------
  PhysicalPlan result;
  std::vector<JoinAlgo> algo_of_op(plan.num_ops(), JoinAlgo::kSortMergeJoin);
  std::vector<int> build_child_of(plan.num_ops(), -1);
  for (int id : plan.TopologicalOrder()) {
    const auto& op = plan.op(id);
    if (op.type != OpType::kJoin || op.children.size() < 2) continue;
    const JoinDecision jd = ChooseJoin(op, theta_p_of(subq_of_[id]), card);
    algo_of_op[id] = jd.algo;
    build_child_of[id] = jd.build_op;
    result.join_decisions.push_back(jd);
  }

  // ---- 2. Stage formation: merge BHJ subQs into their probe stage -----
  // Union-find over subq ids.
  std::vector<int> uf(m);
  std::iota(uf.begin(), uf.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (uf[x] != x) {
      uf[x] = uf[uf[x]];
      x = uf[x];
    }
    return x;
  };
  auto subq_completed = [&](int sq) {
    return sq < static_cast<int>(completed_subqs.size()) &&
           completed_subqs[sq];
  };
  // subQ-level producer -> consumer edges, for the cycle guard below.
  std::vector<std::vector<int>> subq_consumers(m);
  for (int id = 0; id < static_cast<int>(plan.num_ops()); ++id) {
    for (int c : plan.op(id).children) {
      if (subq_of_[c] != subq_of_[id]) {
        subq_consumers[subq_of_[c]].push_back(subq_of_[id]);
      }
    }
  }
  // True when merging producer group `gp` into consumer group `gj` would
  // create a cycle in the stage graph, i.e. when some other path gp -> gj
  // exists besides the direct edge. This happens when the probe side's
  // exchange is reused by another consumer (e.g. a correlated aggregate
  // over the same join output): the BHJ stage must then read the
  // materialized exchange output instead of collapsing into the probe
  // stage.
  auto would_cycle = [&](int gp, int gj) {
    std::vector<char> seen(m, 0);
    std::vector<int> stack;
    auto push_successors = [&](int g, bool from_start) {
      for (int sq = 0; sq < static_cast<int>(m); ++sq) {
        if (find(sq) != g) continue;
        for (int consumer : subq_consumers[sq]) {
          const int gc = find(consumer);
          if (gc == g || (from_start && gc == gj) || seen[gc]) continue;
          seen[gc] = 1;
          stack.push_back(gc);
        }
      }
    };
    push_successors(gp, /*from_start=*/true);
    while (!stack.empty()) {
      const int g = stack.back();
      stack.pop_back();
      if (g == gj) return true;
      push_successors(g, /*from_start=*/false);
    }
    return false;
  };
  for (int id : plan.TopologicalOrder()) {
    const auto& op = plan.op(id);
    if (op.type != OpType::kJoin ||
        algo_of_op[id] != JoinAlgo::kBroadcastHashJoin) {
      continue;
    }
    const int build = build_child_of[id];
    for (int c : op.children) {
      if (c == build) continue;
      // Merge the join's subQ into the probe child's stage group — but
      // never into a stage that has already executed (AQE re-planning
      // cannot rewrite completed stages; the BHJ then runs in its own
      // stage reading the probe side's materialized shuffle output).
      if (subq_completed(subq_of_[id]) || subq_completed(subq_of_[c])) {
        continue;
      }
      const int gj = find(subq_of_[id]);
      const int gp = find(subq_of_[c]);
      if (gj == gp || would_cycle(gp, gj)) continue;
      uf[gj] = gp;
    }
  }

  // Group subQs into stages.
  std::vector<int> stage_of_subq(m, -1);
  for (size_t i = 0; i < m; ++i) {
    const int r = find(static_cast<int>(i));
    if (stage_of_subq[r] == -1) {
      QueryStage st;
      st.id = static_cast<int>(result.stages.size());
      st.subq_id = r;
      result.stages.push_back(st);
      stage_of_subq[r] = st.id;
    }
    stage_of_subq[i] = stage_of_subq[r];
  }
  // Fill member ops in topological order.
  for (int id : plan.TopologicalOrder()) {
    auto& st = result.stages[stage_of_subq[subq_of_[id]]];
    st.op_ids.push_back(id);
    const auto& op = plan.op(id);
    if (op.type == OpType::kScan) st.is_scan_stage = true;
    if (op.type == OpType::kJoin) {
      st.has_join = true;
      st.join_algo = algo_of_op[id];
    }
  }

  // ---- 3. Dependencies, IO totals, CPU work ----------------------------
  for (auto& st : result.stages) {
    double skew = 0.0;
    for (int id : st.op_ids) {
      const auto& op = plan.op(id);
      if (op.type == OpType::kScan && op.table_id >= 0) {
        st.input_rows += card.rows(id) / std::max(op.selectivity, 1e-9);
        st.input_bytes += card.bytes(id) / std::max(op.selectivity, 1e-9);
      }
      skew = std::max(skew, op.shuffle_skew);
      for (int c : op.children) {
        const int child_stage = stage_of_subq[subq_of_[c]];
        if (child_stage == st.id) continue;
        const bool is_broadcast =
            op.type == OpType::kJoin &&
            algo_of_op[id] == JoinAlgo::kBroadcastHashJoin &&
            c == build_child_of[id];
        if (is_broadcast) {
          if (std::find(st.broadcast_deps.begin(), st.broadcast_deps.end(),
                        child_stage) == st.broadcast_deps.end()) {
            st.broadcast_deps.push_back(child_stage);
          }
          st.broadcast_bytes += card.bytes(c);
        } else {
          if (std::find(st.deps.begin(), st.deps.end(), child_stage) ==
              st.deps.end()) {
            st.deps.push_back(child_stage);
          }
          st.shuffle_read_bytes += card.bytes(c);
          st.input_rows += card.rows(c);
          st.input_bytes += card.bytes(c);
        }
      }
      // CPU work by operator type / join algorithm.
      const double out_rows = card.rows(id);
      switch (op.type) {
        case OpType::kJoin: {
          const int build = build_child_of[id];
          double build_rows = 0.0, probe_rows = 0.0;
          for (int c : op.children) {
            (c == build ? build_rows : probe_rows) += card.rows(c);
          }
          switch (algo_of_op[id]) {
            case JoinAlgo::kSortMergeJoin:
              st.sort_work += 0.35 * (NLogN(build_rows) + NLogN(probe_rows)) /
                              std::log2(1e6);
              st.cpu_work += 0.6 * (build_rows + probe_rows) + st.sort_work;
              break;
            case JoinAlgo::kShuffledHashJoin:
              st.cpu_work += 1.0 * build_rows + 0.35 * probe_rows;
              break;
            case JoinAlgo::kBroadcastHashJoin:
              // Hash table built once per executor core group; charged per
              // executor by the cost model via broadcast fields.
              st.cpu_work += 0.4 * probe_rows;
              break;
          }
          st.cpu_work += 0.15 * out_rows;  // output materialization
          break;
        }
        case OpType::kSort:
          st.sort_work += 0.5 * NLogN(out_rows) / std::log2(1e6);
          st.cpu_work += st.sort_work;
          break;
        default: {
          double in_rows = 0.0;
          if (op.type == OpType::kScan) {
            in_rows = card.rows(id) / std::max(op.selectivity, 1e-9);
          } else {
            for (int c : op.children) in_rows += card.rows(c);
          }
          st.cpu_work += OpWeight(op.type) * std::max(in_rows, out_rows);
          break;
        }
      }
    }
    const int root_op = st.op_ids.empty() ? -1 : st.op_ids.back();
    if (root_op >= 0) {
      st.output_rows = card.rows(root_op);
      st.output_bytes = card.bytes(root_op);
    }

    // ---- 4. Partitioning ------------------------------------------------
    PartitionStage(theta_c, theta_p_of(st.subq_id), theta_s_of(st.subq_id),
                   skew, &st);
    SPARKOPT_DCHECK_EQ(st.num_partitions, TaskCount(st.partitions))
        << "stage " << st.id;
    SPARKOPT_DCHECK_GE(st.num_partitions, 1) << "stage " << st.id;
  }

  // Root stage does not write a shuffle.
  const int root_stage = stage_of_subq[subq_of_[plan.root()]];
  for (auto& st : result.stages) {
    st.exchanges_output = st.id != root_stage;
  }
  SPARKOPT_VERIFY_PHYSICAL(result, plan_, "PhysicalPlanner::Plan");
  return result;
}

}  // namespace sparkopt
