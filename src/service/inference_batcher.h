#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_safety.h"
#include "model/mlp.h"

/// \file inference_batcher.h
/// \brief Cross-session inference batcher: coalesces pending
/// PredictBatchInto rows from concurrently-solving sessions into one
/// flat row-major batch so per-row AVX2 throughput is realized even when
/// each session's own batches are small.
///
/// Flush policy (DESIGN.md section 15): pending requests form a
/// *window*. A submission whose rows push the window to `max_rows`
/// flushes it immediately ("full" flush); otherwise the request that
/// opened the window is its *leader* and waits up to `max_wait_us` on a
/// timed condvar, then flushes the window if no full flush took it first
/// ("timeout" flush). Followers just wait; whoever flushes
/// executes the batch outside the lock (gather -> one PredictBatchInto
/// per distinct regressor -> scatter), marks the covered requests done,
/// and wakes everyone. Submissions of `max_rows` or more rows bypass the
/// collector entirely — they already fill the vector units ("solo").
///
/// Transparency: Regressor::PredictBatchInto is documented bitwise
/// identical per row regardless of batch composition, so coalescing can
/// never change solver output — only when the kernel runs and over how
/// many rows. Requests for different Regressor instances may share a
/// window; the flusher groups rows by regressor before dispatch.
///
/// No solve calls it: TuningService sessions predict directly, because
/// sessions rarely overlap and nearly every window would end in a
/// timeout flush (DESIGN.md section 15). It remains only until the
/// benchmark stops reading TuningService::batcher().

namespace sparkopt {

struct InferenceBatcherOptions {
  /// Pending-row threshold that triggers an immediate flush, and the
  /// bypass threshold for single submissions (>= 64 rows saturate the
  /// AVX2 batch kernel; see bench_model_inference).
  size_t max_rows = 64;
  /// Longest a leader waits for co-scheduled sessions before flushing.
  int64_t max_wait_us = 50;
  /// Disabled: every Predict call dispatches directly.
  bool enabled = true;
};

class InferenceBatcher {
 public:
  explicit InferenceBatcher(InferenceBatcherOptions opts = {});

  /// Predicts `rows` row-major feature rows of `reg.input_dim()` doubles
  /// each into `out` (`rows * reg.output_dim()` doubles), bitwise as
  /// `reg.PredictBatchInto` would. Blocks until this request's rows are
  /// predicted (possibly inside a coalesced batch). Thread-safe.
  void Predict(const Regressor& reg, const double* x, size_t rows,
               double* out);

  struct Stats {
    uint64_t requests = 0;       ///< Predict calls through the batcher
    uint64_t rows = 0;           ///< total rows predicted
    uint64_t solo = 0;           ///< bypassed (disabled / >= max_rows)
    uint64_t full_flushes = 0;   ///< size-triggered
    uint64_t timeout_flushes = 0;///< leader-deadline-triggered
    uint64_t coalesced_batches = 0;  ///< flushes covering >= 2 requests
    uint64_t coalesced_rows = 0;     ///< rows in those flushes
  };
  Stats stats() const;

 private:
  struct Request {
    const Regressor* reg;
    const double* x;
    size_t rows;
    double* out;
    bool done = false;
  };

  /// Moves the pending list into `*batch` and closes the window.
  void TakePendingLocked(std::vector<Request*>* batch)
      SPARKOPT_REQUIRES(mu_);
  /// Gather -> predict (one kernel per distinct regressor) -> scatter.
  /// Runs without the lock; only touches requests it owns.
  void ExecuteBatch(const std::vector<Request*>& batch);

  const InferenceBatcherOptions opts_;
  Mutex mu_;
  CondVar cv_;
  std::vector<Request*> pending_ SPARKOPT_GUARDED_BY(mu_);
  size_t pending_rows_ SPARKOPT_GUARDED_BY(mu_) = 0;
  /// Windows closed so far; a leader's window is open while this is
  /// unchanged since its request opened it.
  uint64_t window_ SPARKOPT_GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> solo_{0};
  std::atomic<uint64_t> full_flushes_{0};
  std::atomic<uint64_t> timeout_flushes_{0};
  std::atomic<uint64_t> coalesced_batches_{0};
  std::atomic<uint64_t> coalesced_rows_{0};
};

}  // namespace sparkopt
