#include "service/tuning_service.h"

#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <vector>

#include "service/model_bootstrap.h"
#include "tuner/tuner.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

HmoocOptions FastHmooc() {
  HmoocOptions h;
  h.theta_c_samples = 24;
  h.clusters = 6;
  h.theta_p_samples = 32;
  h.enriched_samples = 8;
  return h;
}

std::shared_ptr<ServiceArtifacts> MakeArtifacts(bool learned) {
  auto a = std::make_shared<ServiceArtifacts>();
  a->name = learned ? "learned" : "analytic";
  a->hmooc = FastHmooc();
  const auto* catalog = a->AddCatalog(TpchCatalog(10));
  EXPECT_TRUE(a->AddQuery(*MakeTpchQuery(3, catalog)).ok());
  EXPECT_TRUE(a->AddQuery(*MakeTpchQuery(5, catalog)).ok());
  if (learned) {
    BootstrapOptions bo;
    bo.samples_per_query = 12;
    bo.hidden = {16, 8};
    bo.epochs = 20;
    auto reg = FitSubQRegressor(
        {a->FindQuery("TPCH-Q3"), a->FindQuery("TPCH-Q5")}, a->cluster,
        a->cost_params, a->prices, bo);
    EXPECT_TRUE(reg.ok()) << reg.status().ToString();
    a->subq_model = *reg;
  }
  return a;
}

/// The standalone reference the service must reproduce bit for bit.
MooRunResult DirectSolve(const ServiceArtifacts& a, const std::string& query,
                         uint64_t service_seed) {
  TunerOptions to;
  to.cluster = a.cluster;
  to.cost_params = a.cost_params;
  to.prices = a.prices;
  to.hmooc = a.hmooc;
  to.seed = service_seed;
  if (a.subq_model.trained()) to.learned_subq_model = &a.subq_model;
  Tuner tuner(to);
  auto out = tuner.Run(*a.FindQuery(query), TuningMethod::kHmooc3);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out->moo;
}

void ExpectSameFront(const MooRunResult& got, const MooRunResult& want) {
  ASSERT_EQ(got.pareto.size(), want.pareto.size());
  for (size_t i = 0; i < got.pareto.size(); ++i) {
    // operator== on vector<double> is exact: any drift is a bug.
    EXPECT_EQ(got.pareto[i].objectives, want.pareto[i].objectives)
        << "objectives of solution " << i;
    EXPECT_EQ(got.pareto[i].conf, want.pareto[i].conf)
        << "conf of solution " << i;
    EXPECT_EQ(got.pareto[i].per_subq_conf, want.pareto[i].per_subq_conf)
        << "per-subq conf of solution " << i;
  }
}

TEST(TuningServiceTest, SolvesAreBitwiseIdenticalToDirectTuner) {
  for (const bool learned : {false, true}) {
    auto artifacts = MakeArtifacts(learned);
    ArtifactRegistry registry;
    registry.Publish(artifacts);
    const MooRunResult want_q3 = DirectSolve(*artifacts, "TPCH-Q3", 17);
    const MooRunResult want_q5 = DirectSolve(*artifacts, "TPCH-Q5", 17);

    for (const int sessions : {1, 2, 4}) {
      TuningServiceOptions opts;
      opts.sessions = sessions;
      TuningService service(&registry, opts);
      // Several concurrent repeats per query: cache hits and concurrent
      // sessions must not perturb a single bit.
      std::vector<std::future<Result<TuningServiceResult>>> futures;
      for (int rep = 0; rep < 3; ++rep) {
        futures.push_back(service.Submit({"TPCH-Q3"}));
        futures.push_back(service.Submit({"TPCH-Q5"}));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        auto res = futures[i].get();
        ASSERT_TRUE(res.ok())
            << "learned=" << learned << " sessions=" << sessions << ": "
            << res.status().ToString();
        const bool is_q3 = i % 2 == 0;
        ExpectSameFront(res->moo, is_q3 ? want_q3 : want_q5);
        EXPECT_EQ(res->used_learned_model, learned);
        EXPECT_EQ(res->artifact_version, artifacts->version);
        EXPECT_GT(res->solve_seconds, 0.0);
      }
    }
  }
}

TEST(TuningServiceTest, RepeatedQueriesHitTheSharedCache) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);

  // A cold solve misses on every distinct (conf, subq) it evaluates; the
  // hits it does record come from intra-solve duplicates.
  auto first = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->shared_cache_misses, 0u);

  auto second = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(second.ok());
  // The solver's sampling is seeded per (service seed, query seed): the
  // repeat draws the same candidates and hits on every evaluation.
  EXPECT_EQ(second->shared_cache_misses, 0u);
  EXPECT_EQ(second->shared_cache_hits,
            first->shared_cache_hits + first->shared_cache_misses);
  ExpectSameFront(second->moo, first->moo);

  ASSERT_NE(service.shared_cache(), nullptr);
  EXPECT_GT(service.shared_cache()->hit_rate(), 0.0);
}

TEST(TuningServiceTest, DistinctQueriesNeverShareCacheEntries) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);
  auto q3 = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(q3.ok());
  // Same service, different query: the per-query key salt means q3's
  // entries contribute nothing, so q5 behaves exactly as it would have
  // against an empty cache (its hits are only intra-solve duplicates).
  auto warm_q5 = service.Submit({"TPCH-Q5"}).get();
  ASSERT_TRUE(warm_q5.ok());

  ArtifactRegistry fresh_registry;
  fresh_registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningService fresh(&fresh_registry, opts);
  auto cold_q5 = fresh.Submit({"TPCH-Q5"}).get();
  ASSERT_TRUE(cold_q5.ok());
  EXPECT_EQ(warm_q5->shared_cache_hits, cold_q5->shared_cache_hits);
  EXPECT_EQ(warm_q5->shared_cache_misses, cold_q5->shared_cache_misses);
  EXPECT_GT(warm_q5->shared_cache_misses, 0u);
}

TEST(TuningServiceTest, ZeroCapacityQueueRejectsEverything) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.queue_capacity = 0;
  TuningService service(&registry, opts);
  auto res = service.Submit({"TPCH-Q3"}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_queue_full, 1u);
}

TEST(TuningServiceTest, BoundedQueueShedsBurstOverload) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  opts.queue_capacity = 2;
  TuningService service(&registry, opts);
  std::vector<std::future<Result<TuningServiceResult>>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(service.Submit({"TPCH-Q3"}));
  }
  uint64_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    auto res = f.get();
    if (res.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(res.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 50u);
  // Submitting 50 requests takes microseconds against millisecond
  // solves: the bound must have kicked in.
  EXPECT_GT(rejected, 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_full, rejected);
  EXPECT_EQ(stats.completed, ok);
}

TEST(TuningServiceTest, TenantQuotasAreEnforcedIndependently) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  // rate 0: the burst is the whole budget — deterministic regardless of
  // wall time.
  opts.quotas["metered"] = TenantQuota{0.0, 2.0};
  TuningService service(&registry, opts);

  auto a = service.Submit({"TPCH-Q3", "metered"});
  auto b = service.Submit({"TPCH-Q3", "metered"});
  auto c = service.Submit({"TPCH-Q3", "metered"});
  // Unlisted tenants are unthrottled.
  auto d = service.Submit({"TPCH-Q3", "free"});

  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
  auto over = c.get();
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(d.get().ok());
  EXPECT_EQ(service.stats().rejected_quota, 1u);
}

TEST(TuningServiceTest, UnknownQueryResolvesNotFound) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningService service(&registry, {});
  auto res = service.Submit({"TPCH-Q99"}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(TuningServiceTest, EmptyRegistryResolvesFailedPrecondition) {
  ArtifactRegistry registry;
  TuningService service(&registry, {});
  auto res = service.Submit({"TPCH-Q3"}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TuningServiceTest, AbortShedsBacklogWithUnavailable) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  opts.queue_capacity = 256;
  auto service = std::make_unique<TuningService>(&registry, opts);
  std::vector<std::future<Result<TuningServiceResult>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(service->Submit({"TPCH-Q3"}));
  }
  service->Shutdown(ThreadPool::ShutdownMode::kAbort);
  uint64_t completed = 0, shed = 0;
  for (auto& f : futures) {
    auto res = f.get();  // every future must resolve
    if (res.ok()) {
      ++completed;
    } else {
      ASSERT_EQ(res.status().code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(completed + shed, 32u);
  EXPECT_GT(shed, 0u);
  const auto stats = service->stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed, completed);
  // Submissions after shutdown resolve too (shed immediately).
  auto late = service->Submit({"TPCH-Q3"}).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  service.reset();  // drain-on-destroy after abort is a no-op
}

TEST(TuningServiceTest, HotSwapChangesVersionForNewRequestsOnly) {
  ArtifactRegistry registry;
  const uint64_t v1 = registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);

  auto before = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->artifact_version, v1);

  const uint64_t v2 = registry.Publish(MakeArtifacts(/*learned=*/true));
  auto after = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->artifact_version, v2);
  EXPECT_TRUE(after->used_learned_model);
  // Version is part of the cache salt: the v2 solve shares no entries
  // with v1 even for the identical query, so it recomputes (misses) on
  // every distinct evaluation instead of reusing v1's.
  EXPECT_GT(after->shared_cache_misses, 0u);
}

TEST(TuningServiceTest, PreferenceSelectsFromTheSameFront) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);
  auto latency_first = service.Submit({"TPCH-Q3", "t", {0.99, 0.01}}).get();
  auto cost_first = service.Submit({"TPCH-Q3", "t", {0.01, 0.99}}).get();
  ASSERT_TRUE(latency_first.ok());
  ASSERT_TRUE(cost_first.ok());
  // Same front (cache-hit repeat), different WUN pick.
  ExpectSameFront(cost_first->moo, latency_first->moo);
  if (latency_first->moo.pareto.size() > 1) {
    EXPECT_LE(latency_first->chosen.objectives[0],
              cost_first->chosen.objectives[0]);
    EXPECT_GE(latency_first->chosen.objectives[1],
              cost_first->chosen.objectives[1]);
  }
}

TEST(TuningServiceTest, PreferenceDimensionMismatchIsRejected) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningService service(&registry, {});
  auto res = service.Submit({"TPCH-Q3", "t", {1.0, 2.0, 3.0}}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  // Rejected before solving: not a single evaluation reached the cache.
  ASSERT_NE(service.shared_cache(), nullptr);
  EXPECT_EQ(service.shared_cache()->misses(), 0u);
}

TEST(TuningServiceTest, NonFinitePreferenceIsRejected) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningService service(&registry, {});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& pref : std::vector<std::vector<double>>{
           {nan, 1.0}, {inf, 1.0}, {-1.0, 2.0}}) {
    auto res = service.Submit({"TPCH-Q3", "t", pref}).get();
    ASSERT_FALSE(res.ok()) << pref[0] << ", " << pref[1];
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  }
  ASSERT_NE(service.shared_cache(), nullptr);
  EXPECT_EQ(service.shared_cache()->misses(), 0u);
  EXPECT_EQ(service.stats().failed, 3u);
}

}  // namespace
}  // namespace sparkopt
