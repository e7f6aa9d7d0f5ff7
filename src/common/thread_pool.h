#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_safety.h"

/// \file thread_pool.h
/// \brief A small fixed-size worker pool with two entry points:
/// ParallelFor, the solver's index-addressed fan-out, and Post, the
/// fire-and-forget queue the tuning service's session workers drain.
///
/// Design constraints, in order:
///  1. Determinism. Results of `ParallelFor` are collected by index, so
///     callers that write `out[i]` from iteration i observe bitwise the
///     same outputs at any thread count (including 0/1, which run inline
///     on the calling thread — the sequential path is the degenerate
///     case, not a separate code path).
///  2. Exception safety. The first exception thrown by any iteration is
///     captured and rethrown on the calling thread after all in-flight
///     iterations have drained; remaining iterations are skipped.
///  3. Simplicity. One mutex + condvar task queue is plenty: tasks here
///     are coarse (hundreds of model evaluations each), so queue
///     contention is noise compared to the work.
///
/// Worker threads must not record `obs::Span`s (see src/obs/trace.h:
/// spans are main-thread-only); use the thread-safe
/// `obs::ScopedHistogramTimer` / metric helpers instead.

namespace sparkopt {

/// \brief Fixed-size thread pool with inline fallback.
class ThreadPool {
 public:
  /// How Shutdown treats tasks still waiting in the queue.
  enum class ShutdownMode {
    kDrain,  ///< run every queued task to completion, then stop
    kAbort,  ///< discard queued tasks (their destructors still run)
  };

  /// `num_threads` <= -1 or 0 picks `hardware_concurrency`; 1 normally
  /// means no worker threads at all (every call runs inline on the
  /// caller). `dedicated_single_worker` forces a real worker even at 1 —
  /// what asynchronous Post callers (the tuning service) need from a
  /// single-session pool.
  explicit ThreadPool(int num_threads = 0,
                      bool dedicated_single_worker = false);
  /// Equivalent to Shutdown(ShutdownMode::kDrain) — the historical
  /// implicit-drain destruction semantics.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Stops the pool and joins the workers. Idempotent; the first
  /// call wins the drain-vs-abort decision for tasks queued before it.
  ///
  /// kDrain: workers finish everything already queued. kAbort: queued
  /// tasks are discarded without running — but their destructors run (on
  /// the shutting-down thread, outside the pool lock), so RAII task
  /// wrappers can observe the shed and e.g. fail a promise. Tasks already
  /// executing always run to completion; in-flight ParallelFor calls
  /// finish their remaining iterations on the calling thread. After
  /// Shutdown, Post returns false and ParallelFor runs inline on the
  /// caller.
  void Shutdown(ShutdownMode mode) SPARKOPT_EXCLUDES(mu_);

  /// \brief Fire-and-forget task submission. Returns false (task not
  /// queued, immediately destroyed) once the pool is stopped or when the
  /// pool runs inline (no workers): fire-and-forget has no caller to run
  /// inline on, so inline pools reject rather than surprise-block the
  /// poster. Callers own completion tracking.
  bool Post(std::function<void()> task) SPARKOPT_EXCLUDES(mu_);

  /// Tasks discarded by kAbort shutdowns plus tasks rejected by Post.
  uint64_t discarded_tasks() const {
    return discarded_.load(std::memory_order_relaxed);
  }

  /// Number of worker threads (0 when running inline).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Effective parallelism: worker count, or 1 when inline.
  int parallelism() const { return std::max(num_threads(), 1); }

  /// \brief Runs `fn(i)` for every i in [0, n).
  ///
  /// Iterations are claimed dynamically (an atomic cursor), so the
  /// assignment of iterations to threads is nondeterministic — callers
  /// must make each iteration independent and index-addressed. Blocks
  /// until all iterations finish; rethrows the first captured exception.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  /// Queues `task` unless the pool is stopped (then returns false and
  /// destroys the task without running it).
  bool Enqueue(std::function<void()> task) SPARKOPT_EXCLUDES(mu_);
  void WorkerLoop() SPARKOPT_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ SPARKOPT_GUARDED_BY(mu_);
  bool stop_ SPARKOPT_GUARDED_BY(mu_) = false;
  bool joined_ SPARKOPT_GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> discarded_{0};
};

}  // namespace sparkopt
