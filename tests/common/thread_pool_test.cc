#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace sparkopt {
namespace {

TEST(ThreadPoolTest, InlineModeRunsWithoutWorkers) {
  // 1 thread means no workers: everything runs on the calling thread.
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0);
  EXPECT_EQ(pool.parallelism(), 1);
  std::vector<int> out(100, 0);
  pool.ParallelFor(out.size(), [&](size_t i) {
    out[i] = static_cast<int>(i) + 1;
  });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

TEST(ThreadPoolTest, DefaultPicksHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.parallelism(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, IndexAddressedResultsMatchSequential) {
  // The determinism contract: iteration i writes slot i, so the output is
  // identical to the sequential loop regardless of thread count.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<double> out(4096);
    pool.ParallelFor(out.size(), [&](size_t i) {
      double v = static_cast<double>(i) * 0.7;
      for (int k = 0; k < 50; ++k) v = v * 1.0000001 + 0.3;
      out[i] = v;
    });
    return out;
  };
  const auto seq = run(1);
  const auto par = run(4);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], par[i]) << "bitwise mismatch at " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOneIterations) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed ParallelFor.
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ExceptionInInlineMode) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(
                   4, [](size_t i) { if (i == 2) throw std::logic_error("x"); }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A ParallelFor issued from a worker must not deadlock: it runs inline.
  ThreadPool pool(2);
  std::vector<std::vector<int>> out(8);
  pool.ParallelFor(out.size(), [&](size_t i) {
    out[i].assign(16, 0);
    pool.ParallelFor(out[i].size(), [&](size_t j) {
      out[i][j] = static_cast<int>(i * 100 + j);
    });
  });
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t j = 0; j < out[i].size(); ++j) {
      EXPECT_EQ(out[i][j], static_cast<int>(i * 100 + j));
    }
  }
}

TEST(ThreadPoolTest, ConcurrentPostFromManyThreads) {
  // The tuning service's client threads post this way: several producers
  // at once, then a drain.
  ThreadPool pool(4);
  static constexpr int kPer = 50;
  std::atomic<long long> sum{0};
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        EXPECT_TRUE(pool.Post([&sum, &ran, t, i] {
          sum.fetch_add(t * kPer + i, std::memory_order_relaxed);
          ran.fetch_add(1, std::memory_order_relaxed);
        }));
      }
    });
  }
  for (auto& p : producers) p.join();
  pool.Shutdown(ThreadPool::ShutdownMode::kDrain);
  const long long n = 4LL * kPer;
  EXPECT_EQ(ran.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_EQ(pool.discarded_tasks(), 0u);
}

TEST(ThreadPoolTest, InstrumentationRecordsUnderSession) {
  obs::Session session;
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  pool.ParallelFor(64, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
  auto& m = session.metrics();
  EXPECT_GE(m.CounterValue("threadpool.tasks"), 1u);
  EXPECT_GE(m.CounterValue("threadpool.parallel_fors"), 1u);
  // Every ParallelFor index is claimed exactly once, by a worker or by
  // the participating caller.
  EXPECT_EQ(m.CounterValue("threadpool.worker_iters") +
                m.CounterValue("threadpool.caller_iters"),
            64u);
  EXPECT_GE(m.StatsOf("threadpool.queue_wait_us").count, 1u);
}

TEST(ThreadPoolTest, InstrumentationCountsInlineFors) {
  obs::Session session;
  ThreadPool pool(1);  // inline mode
  std::atomic<int> n{0};
  pool.ParallelFor(8, [&](size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 8);
  EXPECT_GE(session.metrics().CounterValue("threadpool.inline_fors"), 1u);
  EXPECT_EQ(session.metrics().CounterValue("threadpool.parallel_fors"), 0u);
}

TEST(ThreadPoolTest, DedicatedSingleWorkerHasARealThread) {
  ThreadPool pool(1, /*dedicated_single_worker=*/true);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.parallelism(), 1);
  std::atomic<int> n{0};
  EXPECT_TRUE(pool.Post([&] { n.fetch_add(1); }));
  pool.Shutdown(ThreadPool::ShutdownMode::kDrain);
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPoolTest, PostRejectsOnInlinePool) {
  // Fire-and-forget has no caller to run inline on: inline pools refuse
  // rather than surprise-block the poster.
  ThreadPool pool(1);
  std::atomic<int> n{0};
  EXPECT_FALSE(pool.Post([&] { n.fetch_add(1); }));
  EXPECT_EQ(n.load(), 0);
  EXPECT_EQ(pool.discarded_tasks(), 1u);
}

TEST(ThreadPoolTest, ShutdownDrainRunsEverythingQueued) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pool.Post([&] { ran.fetch_add(1); }));
  }
  pool.Shutdown(ThreadPool::ShutdownMode::kDrain);
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(pool.discarded_tasks(), 0u);
}

TEST(ThreadPoolTest, ShutdownAbortDiscardsBacklogButRunsDestructors) {
  ThreadPool pool(1, /*dedicated_single_worker=*/true);
  std::atomic<int> ran{0};
  std::atomic<int> destroyed{0};
  // Destructor-observing payload: a RAII wrapper (the tuning service's
  // promise shedding) must see its closure destroyed even when the task
  // never runs.
  struct Tracker {
    explicit Tracker(std::atomic<int>* d) : d_(d) {}
    ~Tracker() { d_->fetch_add(1); }
    std::atomic<int>* d_;
  };
  // Park the single worker so the backlog cannot start.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> parked;
  ASSERT_TRUE(pool.Post([&, gate] {
    parked.set_value();
    gate.wait();
  }));
  parked.get_future().wait();
  for (int i = 0; i < 16; ++i) {
    auto t = std::make_shared<Tracker>(&destroyed);
    ASSERT_TRUE(pool.Post([&ran, t] { ran.fetch_add(1); }));
  }
  release.set_value();  // unblock before joining
  pool.Shutdown(ThreadPool::ShutdownMode::kAbort);
  // Everything not started by the time Shutdown swapped the queue was
  // discarded with its destructor run; nothing is lost either way.
  EXPECT_EQ(ran.load() + static_cast<int>(pool.discarded_tasks()), 16);
  EXPECT_EQ(destroyed.load(), 16);
  // Post after shutdown is refused.
  const uint64_t discarded_before = pool.discarded_tasks();
  EXPECT_FALSE(pool.Post([&] { ran.fetch_add(1); }));
  EXPECT_EQ(pool.discarded_tasks(), discarded_before + 1);
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndFirstCallWins) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Post([&] { ran.fetch_add(1); });
  }
  pool.Shutdown(ThreadPool::ShutdownMode::kDrain);
  const int after_drain = ran.load();
  pool.Shutdown(ThreadPool::ShutdownMode::kAbort);  // no-op
  EXPECT_EQ(ran.load(), after_drain);
  EXPECT_EQ(after_drain, 8);
}

TEST(ThreadPoolTest, WorkDegradesToInlineAfterShutdown) {
  ThreadPool pool(4);
  pool.Shutdown(ThreadPool::ShutdownMode::kDrain);
  // ParallelFor still completes — on the calling thread.
  std::vector<int> out(100, 0);
  pool.ParallelFor(out.size(), [&](size_t i) {
    out[i] = static_cast<int>(i);
  });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

}  // namespace
}  // namespace sparkopt
