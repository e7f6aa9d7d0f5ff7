#include "service/inference_batcher.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace sparkopt {
namespace {

constexpr int kDim = 6;
constexpr int kOut = 2;

Regressor TrainTinyRegressor(uint64_t seed) {
  Rng rng(seed);
  Matrix x, y;
  for (int i = 0; i < 128; ++i) {
    std::vector<double> row(kDim);
    for (auto& v : row) v = rng.Uniform(0.0, 10.0);
    double s = 0.0;
    for (double v : row) s += v;
    x.push_back(row);
    y.push_back({s, s * 0.5 + row[0]});
  }
  Regressor reg(kDim, kOut, {8}, seed);
  Mlp::TrainOptions opts;
  opts.epochs = 10;
  opts.batch_size = 32;
  opts.seed = seed;
  EXPECT_TRUE(reg.Fit(x, y, opts).ok());
  return reg;
}

std::vector<double> RandomRows(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(rows * kDim);
  for (auto& v : x) v = rng.Uniform(0.0, 10.0);
  return x;
}

void DirectPredict(const Regressor& reg, const double* x, size_t rows,
                   double* out) {
  Mlp::BatchScratch scratch;
  reg.PredictBatchInto(x, rows, out, &scratch);
}

TEST(InferenceBatcherTest, CoalescedPredictionsAreBitwiseIdentical) {
  const Regressor reg = TrainTinyRegressor(5);
  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  constexpr size_t kRows = 3;

  // Expected outputs computed directly, single-threaded.
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> expected;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kIters; ++i) {
      const auto x = RandomRows(
          kRows, HashCombine(static_cast<uint64_t>(t), i));
      std::vector<double> out(kRows * kOut);
      DirectPredict(reg, x.data(), kRows, out.data());
      inputs.push_back(x);
      expected.push_back(out);
    }
  }

  InferenceBatcherOptions opts;
  opts.max_rows = 16;
  opts.max_wait_us = 200;
  InferenceBatcher batcher(opts);
  std::vector<std::vector<double>> got(inputs.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t idx = static_cast<size_t>(t) * kIters + i;
        got[idx].assign(kRows * kOut, 0.0);
        batcher.Predict(reg, inputs[idx].data(), kRows, got[idx].data());
      }
    });
  }
  for (auto& th : threads) th.join();

  for (size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(got[i].size(), expected[i].size());
    for (size_t j = 0; j < got[i].size(); ++j) {
      // Bitwise: PredictBatchInto is batch-composition-invariant per row,
      // so coalescing across threads must not move a single ulp.
      EXPECT_EQ(got[i][j], expected[i][j]) << "request " << i << " el " << j;
    }
  }
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, inputs.size());
  EXPECT_EQ(stats.rows, inputs.size() * kRows);
}

TEST(InferenceBatcherTest, SaturatingRequestsBypassTheCollector) {
  const Regressor reg = TrainTinyRegressor(6);
  InferenceBatcherOptions opts;
  opts.max_rows = 4;
  InferenceBatcher batcher(opts);
  const auto x = RandomRows(4, 1);
  std::vector<double> direct(4 * kOut), via(4 * kOut);
  DirectPredict(reg, x.data(), 4, direct.data());
  batcher.Predict(reg, x.data(), 4, via.data());
  EXPECT_EQ(via, direct);
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.solo, 1u);
  EXPECT_EQ(stats.full_flushes + stats.timeout_flushes, 0u);
}

TEST(InferenceBatcherTest, DisabledBatcherDispatchesDirectly) {
  const Regressor reg = TrainTinyRegressor(7);
  InferenceBatcherOptions opts;
  opts.enabled = false;
  InferenceBatcher batcher(opts);
  const auto x = RandomRows(2, 2);
  std::vector<double> direct(2 * kOut), via(2 * kOut);
  DirectPredict(reg, x.data(), 2, direct.data());
  batcher.Predict(reg, x.data(), 2, via.data());
  EXPECT_EQ(via, direct);
  EXPECT_EQ(batcher.stats().solo, 1u);
}

TEST(InferenceBatcherTest, LoneSmallRequestFlushesOnTimeout) {
  const Regressor reg = TrainTinyRegressor(8);
  InferenceBatcherOptions opts;
  opts.max_rows = 64;
  opts.max_wait_us = 50;
  InferenceBatcher batcher(opts);
  const auto x = RandomRows(1, 3);
  std::vector<double> direct(kOut), via(kOut);
  DirectPredict(reg, x.data(), 1, direct.data());
  batcher.Predict(reg, x.data(), 1, via.data());  // must not hang
  EXPECT_EQ(via, direct);
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.timeout_flushes, 1u);
  EXPECT_EQ(stats.full_flushes, 0u);
  EXPECT_EQ(stats.solo, 0u);
}

TEST(InferenceBatcherTest, WindowFillTriggersImmediateFlush) {
  const Regressor reg = TrainTinyRegressor(9);
  InferenceBatcherOptions opts;
  opts.max_rows = 8;
  // Long leader deadline: if the size trigger failed, this test would
  // visibly stall (and the timeout counter would show it).
  opts.max_wait_us = 200000;
  InferenceBatcher batcher(opts);

  constexpr int kThreads = 8;  // 1 row each, exactly one window
  std::vector<std::vector<double>> xs, outs(kThreads);
  for (int t = 0; t < kThreads; ++t) xs.push_back(RandomRows(1, 100 + t));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      outs[t].assign(kOut, 0.0);
      batcher.Predict(reg, xs[t].data(), 1, outs[t].data());
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    std::vector<double> direct(kOut);
    DirectPredict(reg, xs[t].data(), 1, direct.data());
    EXPECT_EQ(outs[t], direct) << "thread " << t;
  }
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads));
  // The eighth row fills the window; whoever pushed it flushed "full".
  EXPECT_GE(stats.full_flushes, 1u);
  EXPECT_GT(stats.coalesced_rows, 0u);
}

TEST(InferenceBatcherTest, MixedRegressorsNeverShareAKernelCall) {
  const Regressor a = TrainTinyRegressor(10);
  const Regressor b = TrainTinyRegressor(11);
  InferenceBatcherOptions opts;
  opts.max_rows = 16;
  opts.max_wait_us = 200;
  InferenceBatcher batcher(opts);

  constexpr int kPerModel = 8;
  std::vector<std::vector<double>> xs;
  for (int i = 0; i < 2 * kPerModel; ++i) xs.push_back(RandomRows(1, 50 + i));
  std::vector<std::vector<double>> outs(xs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < xs.size(); ++i) {
    threads.emplace_back([&, i] {
      const Regressor& reg = i < kPerModel ? a : b;
      outs[i].assign(kOut, 0.0);
      batcher.Predict(reg, xs[i].data(), 1, outs[i].data());
    });
  }
  for (auto& th : threads) th.join();

  for (size_t i = 0; i < xs.size(); ++i) {
    const Regressor& reg = i < kPerModel ? a : b;
    std::vector<double> direct(kOut);
    DirectPredict(reg, xs[i].data(), 1, direct.data());
    EXPECT_EQ(outs[i], direct) << "request " << i;
  }
}

/// Calls Predict `depth` frames below the caller. Predict keeps its
/// Request on its own stack, so varying the depth gives consecutive
/// requests of one thread different addresses.
void PredictAtDepth(InferenceBatcher* batcher, const Regressor& reg,
                    const double* x, size_t rows, double* out, int depth) {
  volatile char frame[64] = {};
  if (depth == 0) {
    batcher->Predict(reg, x, rows, out);
  } else {
    PredictAtDepth(batcher, reg, x, rows, out, depth - 1);
  }
  frame[0] = frame[0] + 1;  // live after the call: no tail-call reuse
}

/// Three threads of 20-49 row requests against a 64-row window for a
/// fixed stretch of time: most windows close by a full flush while their
/// leader is still waiting, the schedule under which a leader can
/// outlive its request. Exits 0 once every thread has finished and every
/// prediction matched the direct one bitwise.
void RunLivenessStress(const Regressor& reg) {
  constexpr int kThreads = 3;
  constexpr size_t kMaxRows = 49;
  InferenceBatcherOptions opts;
  opts.max_rows = 64;
  opts.max_wait_us = 50;
  InferenceBatcher batcher(opts);
  const auto stop = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(HashCombine(77, static_cast<uint64_t>(t)));
      const auto x = RandomRows(kMaxRows, 300 + t);
      std::vector<double> want(kMaxRows * kOut), got(kMaxRows * kOut);
      DirectPredict(reg, x.data(), kMaxRows, want.data());
      while (std::chrono::steady_clock::now() < stop) {
        const size_t rows = 20 + rng.Next() % 30;
        const int depth = static_cast<int>(rng.Next() % 24);
        PredictAtDepth(&batcher, reg, x.data(), rows, got.data(), depth);
        // Per-row batch invariance: a prefix predicts like the full set.
        for (size_t j = 0; j < rows * kOut; ++j) {
          if (got[j] != want[j]) ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  int total = 0;
  for (int m : mismatches) total += m;
  std::exit(total == 0 ? 0 : 1);
}

// Liveness under mixed full and timeout flushes. A stalled batcher never
// lets the threads reach their stop time; the alarm then kills the
// child, which EXPECT_EXIT reports as a failure.
TEST(InferenceBatcherTest, MixedFlushesNeverStrandAWindow) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Regressor reg = TrainTinyRegressor(12);
  EXPECT_EXIT(
      {
        alarm(60);
        RunLivenessStress(reg);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace sparkopt
