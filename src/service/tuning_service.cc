#include "service/tuning_service.h"

#include <chrono>
#include <utility>

#include "common/rng.h"
#include "moo/hmooc.h"
#include "moo/objective_models.h"
#include "obs/trace.h"
#include "service/cached_model.h"

namespace sparkopt {

namespace {

// 2^17 slots of 32 bytes plus a reference byte each: 4.3 MB. The
// recurring workload's working set (a few thousand keys per query) fits
// with room to spare; a stream of distinct queries overflows any table
// of this order and relies on CLOCK replacement.
constexpr size_t kSharedCacheSlots = size_t{1} << 17;

double MicrosBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

struct TuningService::PendingState {
  PendingState(TuningService* s, TuningRequest r)
      : svc(s),
        req(std::move(r)),
        enqueue_time(std::chrono::steady_clock::now()) {}

  PendingState(const PendingState&) = delete;
  PendingState& operator=(const PendingState&) = delete;

  ~PendingState() {
    if (!dequeued) svc->queued_.fetch_sub(1, std::memory_order_relaxed);
    if (!fulfilled) {
      // The owning task closure died without running: Shutdown(kAbort)
      // discarded the pool backlog (or the pool refused the Post). The
      // caller's future must still resolve.
      svc->shed_.fetch_add(1, std::memory_order_relaxed);
      promise.set_value(
          Status::Unavailable("tuning request shed during shutdown"));
    }
  }

  void Fulfill(Result<TuningServiceResult> r) {
    promise.set_value(std::move(r));
    fulfilled = true;
  }

  TuningService* const svc;
  const TuningRequest req;
  std::promise<Result<TuningServiceResult>> promise;
  const std::chrono::steady_clock::time_point enqueue_time;
  /// Only the thread currently owning the request mutates these; the
  /// shared_ptr refcount orders the handoff between Submit, the worker,
  /// and the destructor.
  bool fulfilled = false;
  bool dequeued = false;
};

TuningService::TuningService(ArtifactRegistry* registry,
                             TuningServiceOptions opts)
    : registry_(registry),
      opts_(std::move(opts)),
      start_(std::chrono::steady_clock::now()) {
  if (opts_.shared_cache_enabled) {
    shared_cache_ = std::make_unique<SharedEvalCache>(kSharedCacheSlots);
  }
  for (const auto& [tenant, q] : opts_.quotas) {
    quotas_.emplace(std::piecewise_construct,
                    std::forward_as_tuple(tenant),
                    std::forward_as_tuple(q.rate_per_sec, q.burst));
  }
  // dedicated_single_worker: even at sessions=1 requests must run on a
  // pool thread (Submit returns a future the caller may block on from
  // the same thread that submitted).
  const int sessions = opts_.sessions < 1 ? 1 : opts_.sessions;
  pool_ = std::make_unique<ThreadPool>(sessions,
                                       /*dedicated_single_worker=*/true);
}

TuningService::~TuningService() {
  Shutdown(ThreadPool::ShutdownMode::kDrain);
}

double TuningService::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

std::future<Result<TuningServiceResult>> TuningService::Submit(
    TuningRequest req) {
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Tenant quota (token bucket; tenants without an entry are free).
  {
    MutexLock lock(quota_mu_);
    auto it = quotas_.find(req.tenant);
    if (it != quotas_.end() && !it->second.TryAcquire(NowSeconds())) {
      rejected_quota_.fetch_add(1, std::memory_order_relaxed);
      std::promise<Result<TuningServiceResult>> p;
      p.set_value(Status::ResourceExhausted("tenant '" + req.tenant +
                                            "' over quota"));
      return p.get_future();
    }
  }

  // Bounded admission queue: reserve a slot or shed.
  const uint64_t backlog = queued_.fetch_add(1, std::memory_order_relaxed);
  if (backlog >= opts_.queue_capacity) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    std::promise<Result<TuningServiceResult>> p;
    p.set_value(Status::ResourceExhausted("admission queue full"));
    return p.get_future();
  }

  // The state now owns the reserved queue slot (released by RunOne or
  // by its destructor if the task never runs).
  auto state = std::make_shared<PendingState>(this, std::move(req));
  auto future = state->promise.get_future();
  // A false Post (service already shut down) just drops the closure;
  // the state destructor resolves the future with Unavailable.
  pool_->Post([this, state] { RunOne(state); });
  return future;
}

void TuningService::RunOne(const std::shared_ptr<PendingState>& state) {
  state->dequeued = true;
  queued_.fetch_sub(1, std::memory_order_relaxed);
  // Session workers run full solves; obs spans are main-thread-only, so
  // make them inert for everything below (metrics stay live).
  obs::ScopedSpanSuppression suppress;

  const auto start = std::chrono::steady_clock::now();
  const double wait_us = MicrosBetween(state->enqueue_time, start);
  Result<TuningServiceResult> result = Solve(state->req);
  const auto end = std::chrono::steady_clock::now();

  queue_wait_us_.Observe(wait_us);
  solve_us_.Observe(MicrosBetween(start, end));
  sojourn_us_.Observe(MicrosBetween(state->enqueue_time, end));
  if (result.ok()) {
    result->queue_wait_seconds = wait_us * 1e-6;
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  state->Fulfill(std::move(result));
}

Result<TuningServiceResult> TuningService::Solve(const TuningRequest& req) {
  // Snapshot the artifact bundle once: this request sees exactly one
  // version even if a Publish lands mid-solve.
  std::shared_ptr<const ServiceArtifacts> snap = registry_->Current();
  if (snap == nullptr) {
    return Status::FailedPrecondition("no artifacts published");
  }
  const Query* query = snap->FindQuery(req.query_name);
  if (query == nullptr) {
    return Status::NotFound("unknown query '" + req.query_name + "'");
  }
  const std::vector<double>& pref =
      req.preference.empty() ? opts_.default_preference : req.preference;

  // Objective-model stack, mirroring Tuner::Run: analytic by default,
  // learned when the bundle ships a trained regressor...
  AnalyticSubQModel analytic(query, snap->cluster, snap->cost_params,
                             snap->prices);
  std::unique_ptr<LearnedSubQModel> learned;
  const SubQObjectiveModel* model = &analytic;
  if (snap->subq_model.trained()) {
    learned = std::make_unique<LearnedSubQModel>(
        query, snap->cluster, snap->cost_params, &snap->subq_model,
        snap->prices);
    model = learned.get();
  }
  // ...topped by the shared cross-query cache, salted so identical
  // (subq, conf) keys can never collide across queries or versions.
  std::unique_ptr<CachedSubQModel> cached;
  if (shared_cache_ != nullptr) {
    const uint64_t salt = HashCombine(
        snap->version,
        HashCombine(Fnv1a(query->name.data(), query->name.size()),
                    query->seed));
    cached = std::make_unique<CachedSubQModel>(model, shared_cache_.get(),
                                               salt);
    model = cached.get();
  }
  // Reject a malformed preference before any solve work.
  SPARKOPT_RETURN_NOT_OK(CheckPreference(pref, model->num_objectives()));

  // Seed derivation identical to Tuner::Run — the bitwise-equivalence
  // contract depends on it.
  HmoocOptions ho = snap->hmooc;
  ho.seed = HashCombine(opts_.seed, query->seed);

  TuningServiceResult res;
  res.artifact_version = snap->version;
  res.query_name = query->name;
  res.used_learned_model = learned != nullptr;

  HmoocSolver solver(model, ho);
  res.moo = solver.Solve();
  if (res.moo.pareto.empty()) {
    return Status::Internal("solver returned an empty Pareto set");
  }
  res.chosen = res.moo.pareto[res.moo.Recommend(pref)];
  res.solve_seconds = res.moo.solve_seconds;
  if (cached != nullptr) {
    res.shared_cache_hits = cached->shared_hits();
    res.shared_cache_misses = cached->shared_misses();
  }
  return res;
}

void TuningService::Shutdown(ThreadPool::ShutdownMode mode) {
  pool_->Shutdown(mode);
}

TuningService::Stats TuningService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_quota = rejected_quota_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  return s;
}

void TuningService::PublishGauges() const {
  const Stats s = stats();
  obs::GaugeSet("service.submitted", static_cast<double>(s.submitted));
  obs::GaugeSet("service.completed", static_cast<double>(s.completed));
  obs::GaugeSet("service.failed", static_cast<double>(s.failed));
  obs::GaugeSet("service.rejected_queue_full",
                static_cast<double>(s.rejected_queue_full));
  obs::GaugeSet("service.rejected_quota",
                static_cast<double>(s.rejected_quota));
  obs::GaugeSet("service.shed", static_cast<double>(s.shed));
  obs::GaugeSet("service.queued",
                static_cast<double>(queued_.load(std::memory_order_relaxed)));
  if (shared_cache_ != nullptr) shared_cache_->PublishGauges();
}

}  // namespace sparkopt
