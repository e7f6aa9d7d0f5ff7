#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/thread_safety.h"
#include "moo/problem.h"
#include "obs/metrics.h"
#include "service/artifact_registry.h"
#include "service/quota.h"
#include "service/shared_eval_cache.h"

/// \file tuning_service.h
/// \brief Tuning-as-a-service: a long-lived in-process daemon serving
/// concurrent tuning requests from multiple tenants over one shared
/// model/workload artifact bundle.
///
/// Request path (DESIGN.md section 15): Submit() checks the tenant's
/// token-bucket quota, reserves a slot in the bounded admission queue
/// (ResourceExhausted on either limit), and posts the request to a pool
/// of N session workers. Each session snapshots the registry's current
/// artifact version once, builds the same objective-model stack a
/// standalone Tuner::Run would (analytic, or learned when the bundle's
/// regressor is trained), layers the cross-query SharedEvalCache on
/// top, solves with HMOOC, and resolves the request's future with the
/// Pareto front plus the WUN-chosen configuration. A learned session
/// runs its own regressor inference, as Tuner::Run does.
///
/// Determinism: the solver seed is HashCombine(service seed, query seed)
/// — exactly Tuner::Run's derivation — and the only layer between a
/// session and its model is the cache, which memoizes a pure function.
/// A service solve is therefore bitwise identical to a direct Tuner
/// solve of the same (query, preference, artifact version) at any
/// session concurrency, which tests/service/tuning_service_test.cc
/// asserts.
///
/// Shutdown: kDrain completes everything admitted; kAbort discards the
/// backlog, failing each shed request's future with Unavailable (the
/// task closure owns the promise through a RAII state object whose
/// destructor reports the shed — see PendingState).

namespace sparkopt {

/// Zeros only; bench/suite/svc_workload.cc still reads batcher().stats().
class InferenceBatcher {
 public:
  struct Stats {
    uint64_t requests = 0;
    uint64_t rows = 0;
    uint64_t solo = 0;
    uint64_t full_flushes = 0;
    uint64_t timeout_flushes = 0;
    uint64_t coalesced_batches = 0;
    uint64_t coalesced_rows = 0;
  };
  Stats stats() const { return {}; }
};

/// Per-tenant token-bucket parameters (see service/quota.h).
struct TenantQuota {
  double rate_per_sec = 0.0;
  double burst = 1.0;
};

struct TuningServiceOptions {
  /// Concurrent tuning sessions (worker threads). Clamped to >= 1.
  int sessions = 4;
  /// Admitted-but-unstarted request bound; Submit fails with
  /// ResourceExhausted beyond it (open-loop load shedding).
  size_t queue_capacity = 256;
  /// Cross-query shared evaluation cache (false = evaluate uncached).
  bool shared_cache_enabled = true;
  /// Preference weights used when a request leaves its own empty.
  std::vector<double> default_preference = {0.9, 0.1};
  /// Tenant id -> quota. Tenants absent from the map are unthrottled.
  std::map<std::string, TenantQuota> quotas;
  /// Base solver seed; per-query seeds derive as in Tuner::Run.
  uint64_t seed = 17;
};

struct TuningRequest {
  /// Routing key into the artifact bundle's query set.
  std::string query_name;
  std::string tenant = "default";
  /// Optional per-request preference (empty = service default).
  std::vector<double> preference;

  TuningRequest() = default;
  TuningRequest(std::string query, std::string tenant_id = "default",
                std::vector<double> pref = {})
      : query_name(std::move(query)),
        tenant(std::move(tenant_id)),
        preference(std::move(pref)) {}
};

struct TuningServiceResult {
  uint64_t artifact_version = 0;
  std::string query_name;
  /// Full compile-time Pareto set (fine-grained per-subQ confs included).
  MooRunResult moo;
  /// WUN pick under the request's preference.
  MooSolution chosen;
  double solve_seconds = 0.0;
  double queue_wait_seconds = 0.0;
  bool used_learned_model = false;
  /// This request's shared-cache traffic (0/0 when the cache is off).
  uint64_t shared_cache_hits = 0;
  uint64_t shared_cache_misses = 0;
};

class TuningService {
 public:
  /// `registry` must outlive the service. Publish at least one artifact
  /// bundle before submitting (requests fail FailedPrecondition
  /// otherwise).
  TuningService(ArtifactRegistry* registry, TuningServiceOptions opts = {});
  /// Drains outstanding requests (Shutdown(kDrain)).
  ~TuningService();

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Admits one request. The returned future always resolves: with the
  /// result, with an admission error (ResourceExhausted /
  /// FailedPrecondition / NotFound), or with Unavailable when the
  /// request is shed by Shutdown(kAbort).
  std::future<Result<TuningServiceResult>> Submit(TuningRequest req);

  /// Idempotent. kDrain finishes the backlog; kAbort sheds it (each
  /// shed future resolves with Unavailable). No Submit succeeds after.
  void Shutdown(ThreadPool::ShutdownMode mode);

  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;  ///< futures resolved with a result
    uint64_t failed = 0;     ///< solve-path errors (NotFound etc.)
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_quota = 0;
    uint64_t shed = 0;       ///< aborted during shutdown
  };
  Stats stats() const;

  /// Service-owned latency instruments (microseconds). Thread-safe;
  /// readable without an obs session — bench_tuning_service reports
  /// p50/p99 from these.
  const obs::Histogram& solve_latency_us() const { return solve_us_; }
  const obs::Histogram& queue_wait_us() const { return queue_wait_us_; }
  /// queue wait + solve, the client-observed latency.
  const obs::Histogram& sojourn_us() const { return sojourn_us_; }

  /// nullptr when the shared cache is disabled.
  const SharedEvalCache* shared_cache() const { return shared_cache_.get(); }
  const InferenceBatcher& batcher() const { return batcher_; }

  const TuningServiceOptions& options() const { return opts_; }

  /// Publishes "service.*" gauges into the installed obs session (cache
  /// and admission counters). No-op without a session.
  void PublishGauges() const;

 private:
  /// Owns one admitted request's promise. If the owning task closure is
  /// destroyed without running (Shutdown(kAbort) discarding the pool
  /// queue), the destructor resolves the future with Unavailable and
  /// counts the shed.
  struct PendingState;

  void RunOne(const std::shared_ptr<PendingState>& state);
  Result<TuningServiceResult> Solve(const TuningRequest& req);
  double NowSeconds() const;

  ArtifactRegistry* const registry_;
  const TuningServiceOptions opts_;
  std::unique_ptr<SharedEvalCache> shared_cache_;
  InferenceBatcher batcher_;
  std::unique_ptr<ThreadPool> pool_;

  Mutex quota_mu_;
  /// QuotaTracker is non-movable; the map is built once in the ctor and
  /// only TryAcquire (internally locked) is called afterwards, but the
  /// clock reads feeding it are ordered under quota_mu_.
  std::map<std::string, QuotaTracker> quotas_;
  std::chrono::steady_clock::time_point start_;

  std::atomic<uint64_t> queued_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_quota_{0};
  std::atomic<uint64_t> shed_{0};

  obs::Histogram solve_us_;
  obs::Histogram queue_wait_us_;
  obs::Histogram sojourn_us_;
};

}  // namespace sparkopt
