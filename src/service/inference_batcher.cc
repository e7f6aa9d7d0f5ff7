#include "service/inference_batcher.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"

namespace sparkopt {

InferenceBatcher::InferenceBatcher(InferenceBatcherOptions opts)
    : opts_(opts) {}

void InferenceBatcher::TakePendingLocked(std::vector<Request*>* batch) {
  batch->swap(pending_);
  pending_.clear();
  pending_rows_ = 0;
  ++window_;
}

void InferenceBatcher::ExecuteBatch(const std::vector<Request*>& batch) {
  if (batch.empty()) return;
  if (batch.size() >= 2) {
    coalesced_batches_.fetch_add(1, std::memory_order_relaxed);
    size_t rows = 0;
    for (const Request* r : batch) rows += r->rows;
    coalesced_rows_.fetch_add(rows, std::memory_order_relaxed);
    obs::Observe("service.batcher_batch_rows", static_cast<double>(rows));
  }
  // Group by regressor in arrival order (deterministic given the batch):
  // requests from different sessions may target different model
  // versions, and rows must only ever meet their own weights.
  thread_local std::vector<double> gather;
  thread_local std::vector<char> grouped;
  thread_local Mlp::BatchScratch scratch;
  grouped.assign(batch.size(), 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (grouped[i]) continue;
    const Regressor* reg = batch[i]->reg;
    size_t group_rows = 0;
    for (size_t j = i; j < batch.size(); ++j) {
      if (!grouped[j] && batch[j]->reg == reg) group_rows += batch[j]->rows;
    }
    if (group_rows == batch[i]->rows) {
      // Single-request group: predict straight into its output.
      grouped[i] = 1;
      reg->PredictBatchInto(batch[i]->x, batch[i]->rows, batch[i]->out,
                            &scratch);
      continue;
    }
    const size_t d = static_cast<size_t>(reg->input_dim());
    const size_t k = static_cast<size_t>(reg->output_dim());
    gather.resize(group_rows * d);
    // Gather every member's rows into one flat batch...
    size_t row = 0;
    for (size_t j = i; j < batch.size(); ++j) {
      if (grouped[j] || batch[j]->reg != reg) continue;
      std::copy(batch[j]->x, batch[j]->x + batch[j]->rows * d,
                gather.begin() + row * d);
      row += batch[j]->rows;
    }
    // ...run one kernel over the coalesced rows...
    thread_local std::vector<double> preds;
    preds.resize(group_rows * k);
    reg->PredictBatchInto(gather.data(), group_rows, preds.data(), &scratch);
    // ...and scatter each member's slice back.
    row = 0;
    for (size_t j = i; j < batch.size(); ++j) {
      if (grouped[j] || batch[j]->reg != reg) continue;
      grouped[j] = 1;
      std::copy(preds.begin() + row * k,
                preds.begin() + (row + batch[j]->rows) * k, batch[j]->out);
      row += batch[j]->rows;
    }
  }
}

void InferenceBatcher::Predict(const Regressor& reg, const double* x,
                               size_t rows, double* out) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(rows, std::memory_order_relaxed);
  if (!opts_.enabled || rows == 0 || rows >= opts_.max_rows) {
    // Solo path: already saturating (or batching off) — no wait, no lock.
    solo_.fetch_add(1, std::memory_order_relaxed);
    thread_local Mlp::BatchScratch scratch;
    reg.PredictBatchInto(x, rows, out, &scratch);
    return;
  }

  Request req{&reg, x, rows, out, /*done=*/false};
  std::vector<Request*> batch;
  {
    MutexLock lock(mu_);
    // The request that opens a window leads it: it alone owns the
    // window's deadline, so every window has exactly one live timer.
    const bool leads = pending_.empty();
    const uint64_t window = window_;
    pending_.push_back(&req);
    pending_rows_ += rows;
    if (pending_rows_ >= opts_.max_rows) {
      TakePendingLocked(&batch);
      full_flushes_.fetch_add(1, std::memory_order_relaxed);
    } else if (leads) {
      // Wait until a full flush takes the window (req included) or the
      // deadline passes, then flush the window only if it is still open.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(opts_.max_wait_us);
      while (window_ == window) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          TakePendingLocked(&batch);
          timeout_flushes_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        cv_.WaitFor(mu_, deadline - now);
      }
    }
  }
  if (!batch.empty()) {
    ExecuteBatch(batch);
    MutexLock lock(mu_);
    for (Request* r : batch) r->done = true;
    cv_.NotifyAll();
  }
  // If a different thread's flush covers this request, wait for it to
  // finish writing `out` before returning.
  {
    MutexLock lock(mu_);
    while (!req.done) cv_.Wait(mu_);
  }
}

InferenceBatcher::Stats InferenceBatcher::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rows = rows_.load(std::memory_order_relaxed);
  s.solo = solo_.load(std::memory_order_relaxed);
  s.full_flushes = full_flushes_.load(std::memory_order_relaxed);
  s.timeout_flushes = timeout_flushes_.load(std::memory_order_relaxed);
  s.coalesced_batches = coalesced_batches_.load(std::memory_order_relaxed);
  s.coalesced_rows = coalesced_rows_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sparkopt
