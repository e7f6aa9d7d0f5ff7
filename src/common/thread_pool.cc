#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/trace.h"

namespace sparkopt {

namespace {
// Set while a pool worker runs tasks. A ParallelFor issued from inside a
// worker runs inline: letting it queue-and-wait could deadlock once every
// worker blocks on a nested wait with the queued bodies unserved.
thread_local bool t_in_worker = false;
}  // namespace

ThreadPool::ThreadPool(int num_threads, bool dedicated_single_worker) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  if (num_threads <= 1 && !dedicated_single_worker) {
    return;  // inline mode: no workers at all
  }
  num_threads = std::max(num_threads, 1);
  workers_.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(ShutdownMode::kDrain); }

void ThreadPool::Shutdown(ShutdownMode mode) {
  // Discarded tasks are destroyed after the lock is released: RAII task
  // wrappers may run arbitrary code in their destructors (the tuning
  // service fails promises there) and must not do so under the pool lock.
  std::queue<std::function<void()>> discarded;
  bool join = false;
  {
    MutexLock lock(mu_);
    if (mode == ShutdownMode::kAbort && !queue_.empty()) {
      discarded.swap(queue_);
      discarded_.fetch_add(discarded.size(), std::memory_order_relaxed);
    }
    stop_ = true;
    if (!joined_) {
      joined_ = true;
      join = true;
    }
  }
  cv_.NotifyAll();
  if (join) {
    for (auto& w : workers_) w.join();
  }
}

bool ThreadPool::Post(std::function<void()> task) {
  if (workers_.empty() || !Enqueue(std::move(task))) {
    discarded_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool ThreadPool::Enqueue(std::function<void()> task) {
  // Queue instrumentation costs one relaxed load when no session is
  // installed. With a session, each task is wrapped to record its
  // enqueue->dequeue wait; the session must stay alive until the pool's
  // queue drains (the documented session lifetime contract — ParallelFor
  // callers block on their tasks, and Post callers track their own).
  if (obs::Session* s = obs::Session::Current()) {
    s->metrics().counter("threadpool.tasks").Add(1);
    obs::Histogram* wait = &s->metrics().histogram("threadpool.queue_wait_us");
    const auto enqueued_at = std::chrono::steady_clock::now();
    task = [inner = std::move(task), wait, enqueued_at] {
      wait->Observe(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - enqueued_at)
                        .count());
      inner();
    };
  }
  size_t depth;
  {
    MutexLock lock(mu_);
    if (stop_) return false;  // task destroyed without running
    queue_.push(std::move(task));
    depth = queue_.size();
  }
  obs::Observe("threadpool.queue_depth", static_cast<double>(depth));
  cv_.NotifyOne();
  return true;
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Explicit predicate loop (not a wait-lambda) so the thread-safety
      // analysis sees the guarded reads under the lock.
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_in_worker) {
    obs::Count("threadpool.inline_fors");
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  obs::Count("threadpool.parallel_fors");

  // Shared state for one ParallelFor invocation. Tasks claim indices
  // from `next`; the last task to finish signals `done_cv`.
  struct ForState {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    Mutex error_mu;
    std::exception_ptr error SPARKOPT_GUARDED_BY(error_mu);
    Mutex done_mu;
    CondVar done_cv;
    size_t pending_tasks SPARKOPT_GUARDED_BY(done_mu) = 0;
  };
  auto state = std::make_shared<ForState>();

  const size_t tasks = std::min(n, workers_.size() + 1);
  {
    // Written under the lock so the static analysis can prove the
    // decrements in task bodies race-free (publication to the workers
    // itself happens-before via Enqueue's queue mutex).
    MutexLock lock(state->done_mu);
    state->pending_tasks = tasks;
  }

  // The caller waits until every task body has run to completion, so the
  // by-reference capture of `fn` cannot dangle.
  auto body = [state, n, &fn] {
    // Iterations claimed by this task, flushed as one counter update at
    // the end (per-iteration metric calls would put a registry lookup
    // inside the claiming loop). worker_iters vs caller_iters shows how
    // much work the pool pulled off the calling thread.
    uint64_t claimed = 0;
    size_t i;
    while ((i = state->next.fetch_add(1, std::memory_order_relaxed)) < n) {
      if (state->failed.load(std::memory_order_relaxed)) continue;
      ++claimed;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(state->error_mu);
        if (!state->failed.exchange(true, std::memory_order_relaxed)) {
          state->error = std::current_exception();
        }
      }
    }
    if (claimed > 0) {
      obs::Count(t_in_worker ? "threadpool.worker_iters"
                             : "threadpool.caller_iters",
                 claimed);
    }
    MutexLock lock(state->done_mu);
    if (--state->pending_tasks == 0) state->done_cv.NotifyAll();
  };

  // One fewer queued task than workers when the caller participates:
  // the calling thread runs the same claiming loop, so a fully busy pool
  // cannot deadlock the caller and small n never waits on wake-ups.
  // Rejected enqueues (pool shut down mid-call) are subtracted from the
  // pending count — the caller's own claiming loop still covers every
  // iteration, the work just degrades to inline.
  size_t enqueued = 0;
  for (size_t t = 1; t < tasks; ++t) {
    if (Enqueue(body)) ++enqueued;
  }
  if (enqueued + 1 != tasks) {
    MutexLock lock(state->done_mu);
    state->pending_tasks -= tasks - 1 - enqueued;
  }
  body();

  {
    MutexLock lock(state->done_mu);
    while (state->pending_tasks != 0) state->done_cv.Wait(state->done_mu);
  }
  if (state->failed.load(std::memory_order_acquire)) {
    // Uncontended by now (all tasks drained), but the read of `error`
    // must hold its guard for the analysis — and it documents that the
    // publication contract is the mutex, not the relaxed flag.
    MutexLock lock(state->error_mu);
    std::rethrow_exception(state->error);
  }
}

}  // namespace sparkopt
