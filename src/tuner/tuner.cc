#include "tuner/tuner.h"

#include <algorithm>
#include <chrono>

#include "analysis/invariants.h"
#include "common/rng.h"
#include "moo/baselines.h"
#include "obs/trace.h"

namespace sparkopt {

const char* TuningMethodName(TuningMethod m) {
  switch (m) {
    case TuningMethod::kDefault: return "Default";
    case TuningMethod::kHmooc3: return "HMOOC3";
    case TuningMethod::kHmooc3Plus: return "HMOOC3+";
    case TuningMethod::kMoWs: return "MO-WS";
    case TuningMethod::kSoFixedWeights: return "SO-FW";
    case TuningMethod::kEvoQuery: return "Evo";
    case TuningMethod::kPfQuery: return "PF";
  }
  return "?";
}

Result<TuningOutcome> Tuner::RunWithConfig(const Query& query,
                                           const std::vector<double>& conf,
                                           bool runtime_opt) const {
  obs::Span span("tuner.run_with_config");
  TuningOutcome out;
  out.method = TuningMethod::kDefault;
  out.query_name = query.name;
  out.chosen.conf = conf;

  Simulator sim(opts_.cluster, opts_.cost_params, opts_.prices);
  AqeDriver driver(&query.plan, &sim);
  const ContextParams tc = DecodeContext(conf);
  const PlanParams tp = DecodePlan(conf);
  const StageParams ts = DecodeStage(conf);

  if (runtime_opt) {
    // The runtime optimizer weighs (latency, cost) by the preference.
    SPARKOPT_RETURN_NOT_OK(
        CheckPreference(opts_.preference, /*num_objectives=*/2));
    SubQEvaluator eval(&query, opts_.cluster, opts_.cost_params,
                       opts_.prices);
    RuntimeOptimizerOptions ro = opts_.runtime;
    ro.preference = opts_.preference;
    if (opts_.num_threads >= 0) ro.num_threads = opts_.num_threads;
    RuntimeOptimizer hooks(&eval, ro);
    hooks.set_context(tc);
    auto exec = driver.Run(tc, {tp}, {ts}, &hooks, query.seed);
    if (!exec.ok()) return exec.status();
    out.execution = std::move(*exec);
    out.runtime_stats = hooks.stats();
    out.runtime_overhead_seconds = hooks.overhead_seconds();
  } else {
    auto exec = driver.Run(tc, {tp}, {ts}, nullptr, query.seed);
    if (!exec.ok()) return exec.status();
    out.execution = std::move(*exec);
  }
  return out;
}

Result<TuningOutcome> Tuner::Run(const Query& query,
                                 TuningMethod method) const {
  obs::Span span("tuner.run");
  obs::Count("tuner.queries");
#ifdef SPARKOPT_VERIFY
  {
    // The tuner is the system boundary: reject malformed query plans and
    // inconsistent subQ decompositions before optimizing against them.
    const auto subqs = query.plan.DecomposeSubQueries();
    SPARKOPT_VERIFY_LOGICAL(query.plan, query.catalog, &subqs, "Tuner::Run");
  }
#endif
  if (method == TuningMethod::kDefault) {
    auto out = RunWithConfig(query, DefaultSparkConfig());
    if (out.ok()) out->method = TuningMethod::kDefault;
    return out;
  }

  // Compile-time objective model.
  AnalyticSubQModel analytic(&query, opts_.cluster, opts_.cost_params,
                             opts_.prices);
  std::unique_ptr<LearnedSubQModel> learned;
  const SubQObjectiveModel* model = &analytic;
  if (opts_.learned_subq_model != nullptr &&
      opts_.learned_subq_model->trained()) {
    learned = std::make_unique<LearnedSubQModel>(
        &query, opts_.cluster, opts_.cost_params, opts_.learned_subq_model,
        opts_.prices);
    model = learned.get();
  }
  // The WUN pick, SO-FW and the runtime optimizer read the preference.
  SPARKOPT_RETURN_NOT_OK(
      CheckPreference(opts_.preference, model->num_objectives()));

  TuningOutcome out;
  out.method = method;
  out.query_name = query.name;

  obs::Span solve_span("tuner.compile_solve");
  switch (method) {
    case TuningMethod::kHmooc3:
    case TuningMethod::kHmooc3Plus: {
      HmoocOptions ho = opts_.hmooc;
      ho.seed = HashCombine(opts_.seed, query.seed);
      if (opts_.num_threads >= 0) ho.num_threads = opts_.num_threads;
      HmoocSolver solver(model, ho);
      out.moo = solver.Solve();
      break;
    }
    case TuningMethod::kMoWs: {
      FlatProblem flat(model, /*fine_grained=*/false);
      WsOptions wo = opts_.mo_ws;
      wo.seed = HashCombine(opts_.seed, query.seed);
      out.moo = SolveWeightedSum(flat, flat, wo);
      break;
    }
    case TuningMethod::kSoFixedWeights: {
      FlatProblem flat(model, /*fine_grained=*/false);
      out.moo = SolveSoFixedWeights(flat, flat, opts_.preference,
                                    opts_.so_fw_samples,
                                    HashCombine(opts_.seed, query.seed));
      break;
    }
    case TuningMethod::kEvoQuery: {
      FlatProblem flat(model, /*fine_grained=*/false);
      EvoOptions eo = opts_.evo;
      eo.seed = HashCombine(opts_.seed, query.seed);
      out.moo = SolveEvo(flat, flat, eo);
      break;
    }
    case TuningMethod::kPfQuery: {
      FlatProblem flat(model, /*fine_grained=*/false);
      PfOptions po = opts_.pf;
      po.seed = HashCombine(opts_.seed, query.seed);
      out.moo = SolveProgressiveFrontier(flat, flat, po);
      break;
    }
    default:
      return Status::InvalidArgument("unsupported tuning method");
  }
  solve_span.Arg("evaluations", static_cast<double>(out.moo.evaluations));
  solve_span.Arg("pareto_size", static_cast<double>(out.moo.pareto.size()));
  solve_span.End();
  obs::GaugeSet("tuner.pareto_size",
                static_cast<double>(out.moo.pareto.size()));
  out.solve_seconds = out.moo.solve_seconds;
  if (out.moo.pareto.empty()) {
    return Status::Internal("solver returned an empty Pareto set");
  }
#ifdef SPARKOPT_VERIFY
  {
    // A dominated or non-finite point here would corrupt the WUN pick.
    std::vector<ObjectiveVector> front;
    front.reserve(out.moo.pareto.size());
    for (const auto& sol : out.moo.pareto) front.push_back(sol.objectives);
    SPARKOPT_VERIFY_FRONT(front, "Tuner::Run (compile-time front)");
  }
#endif

  // WUN recommendation.
  const size_t pick = out.moo.Recommend(opts_.preference);
  out.chosen = out.moo.pareto[pick];

  // Execute. Fine-grained solutions are aggregated into the single
  // theta_p/theta_s copy Spark accepts at submission.
  const ContextParams tc = DecodeContext(out.chosen.conf);
  PlanParams tp = DecodePlan(out.chosen.conf);
  StageParams ts = DecodeStage(out.chosen.conf);
  SubQEvaluator eval(&query, opts_.cluster, opts_.cost_params, opts_.prices);
  if (!out.chosen.per_subq_conf.empty()) {
    AggregateForSubmission(out.chosen.per_subq_conf, eval.subqueries(), &tp,
                           &ts);
  }

  Simulator sim(opts_.cluster, opts_.cost_params, opts_.prices);
  AqeDriver driver(&query.plan, &sim);
  obs::Span exec_span("tuner.execute");
  if (method == TuningMethod::kHmooc3Plus) {
    RuntimeOptimizerOptions ro = opts_.runtime;
    ro.preference = opts_.preference;
    if (opts_.num_threads >= 0) ro.num_threads = opts_.num_threads;
    RuntimeOptimizer hooks(&eval, ro);
    hooks.set_context(tc);
    if (!out.chosen.per_subq_conf.empty()) {
      // Seed runtime re-optimization with the compile-time fine-grained
      // per-subQ parameters (Appendix C.2.1).
      std::vector<PlanParams> init_p;
      std::vector<StageParams> init_s;
      for (const auto& c : out.chosen.per_subq_conf) {
        init_p.push_back(DecodePlan(c));
        init_s.push_back(DecodeStage(c));
      }
      hooks.set_compile_time_solution(std::move(init_p), std::move(init_s));
    }
    auto exec = driver.Run(tc, {tp}, {ts}, &hooks, query.seed);
    if (!exec.ok()) return exec.status();
    out.execution = std::move(*exec);
    out.runtime_stats = hooks.stats();
    out.runtime_overhead_seconds = hooks.overhead_seconds();
  } else {
    auto exec = driver.Run(tc, {tp}, {ts}, nullptr, query.seed);
    if (!exec.ok()) return exec.status();
    out.execution = std::move(*exec);
  }
  return out;
}

obs::TuningReport BuildTuningReport(const TuningOutcome& outcome,
                                    const obs::Session& session) {
  obs::TuningReport r;
  r.query = outcome.query_name;
  r.method = TuningMethodName(outcome.method);

  r.compile_solve_seconds = outcome.solve_seconds;
  r.compile_evaluations = outcome.moo.evaluations;

  // Runtime re-solves come from the spans the RuntimeOptimizer recorded.
  for (const auto& ev : session.trace().Events()) {
    obs::ResolveRecord rec;
    if (ev.name == "runtime.lqp_resolve") {
      rec.kind = "lqp";
    } else if (ev.name == "runtime.qs_resolve") {
      rec.kind = "qs";
    } else {
      continue;
    }
    rec.seconds = ev.dur_us / 1e6;
    rec.at_seconds = ev.ts_us / 1e6;
    r.runtime_resolves.push_back(std::move(rec));
  }
  r.runtime_overhead_seconds = outcome.runtime_overhead_seconds;
  r.lqp_sent = outcome.runtime_stats.lqp_sent;
  r.lqp_pruned = outcome.runtime_stats.lqp_pruned;
  r.qs_sent = outcome.runtime_stats.qs_sent;
  r.qs_pruned = outcome.runtime_stats.qs_pruned;

  const auto& metrics = session.metrics();
  r.inference_us = metrics.StatsOf("model.inference_us");
  r.model_inferences = r.inference_us.count;

  r.sim_stages = static_cast<int64_t>(metrics.CounterValue("sim.stages"));
  r.sim_tasks = static_cast<int64_t>(metrics.CounterValue("sim.tasks"));
  r.sim_spilled_tasks =
      static_cast<int64_t>(metrics.CounterValue("sim.spilled_tasks"));
  r.sim_shuffle_read_bytes = metrics.GaugeValue("sim.shuffle_read_bytes");
  r.sim_io_bytes = metrics.GaugeValue("sim.io_bytes");
  r.aqe_waves = outcome.execution.waves;
  r.aqe_replans = outcome.execution.replans;

  r.pareto_size = outcome.moo.pareto.size();
  r.pareto.reserve(outcome.moo.pareto.size());
  for (const auto& sol : outcome.moo.pareto) {
    if (sol.objectives.size() >= 2) {
      r.pareto.push_back({sol.objectives[0], sol.objectives[1]});
    }
  }
  if (outcome.chosen.objectives.size() >= 2) {
    r.chosen = {outcome.chosen.objectives[0], outcome.chosen.objectives[1]};
  }
  r.exec_latency_seconds = outcome.execution.exec.latency;
  r.exec_cost_dollars = outcome.execution.exec.cost;
  return r;
}

}  // namespace sparkopt
