#include "model/mlp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace sparkopt {
namespace {

TEST(StandardizerTest, ZeroMeanUnitVariance) {
  Matrix x = {{1, 10}, {3, 30}, {5, 50}};
  Standardizer s;
  s.Fit(x);
  EXPECT_DOUBLE_EQ(s.mean[0], 3.0);
  EXPECT_DOUBLE_EQ(s.mean[1], 30.0);
  auto t = s.Transform({3, 30});
  EXPECT_NEAR(t[0], 0.0, 1e-12);
  EXPECT_NEAR(t[1], 0.0, 1e-12);
}

TEST(StandardizerTest, ConstantFeatureDoesNotDivideByZero) {
  Matrix x = {{7}, {7}, {7}};
  Standardizer s;
  s.Fit(x);
  auto t = s.Transform({7});
  EXPECT_TRUE(std::isfinite(t[0]));
}

TEST(MlpTest, OutputShapeMatchesArchitecture) {
  Mlp net({4, 8, 3}, 1);
  auto y = net.Predict({1, 2, 3, 4});
  EXPECT_EQ(y.size(), 3u);
  EXPECT_EQ(net.input_dim(), 4);
  EXPECT_EQ(net.output_dim(), 3);
}

TEST(MlpTest, DeterministicInitialization) {
  Mlp a({4, 8, 1}, 7);
  Mlp b({4, 8, 1}, 7);
  EXPECT_EQ(a.Predict({1, 2, 3, 4}), b.Predict({1, 2, 3, 4}));
  Mlp c({4, 8, 1}, 8);
  EXPECT_NE(a.Predict({1, 2, 3, 4}), c.Predict({1, 2, 3, 4}));
}

TEST(MlpTest, FitRejectsBadShapes) {
  Mlp net({2, 4, 1}, 1);
  Mlp::TrainOptions opts;
  EXPECT_FALSE(net.Fit({}, {}, opts).ok());
  EXPECT_FALSE(net.Fit({{1, 2, 3}}, {{1}}, opts).ok());
  EXPECT_FALSE(net.Fit({{1, 2}}, {{1, 2}}, opts).ok());
}

TEST(MlpTest, LearnsLinearFunction) {
  Rng rng(3);
  Matrix x, y;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    x.push_back({a, b});
    y.push_back({2 * a - 3 * b + 0.5});
  }
  Mlp net({2, 16, 1}, 5);
  Mlp::TrainOptions opts;
  opts.epochs = 300;
  opts.patience = 60;
  opts.learning_rate = 5e-3;
  ASSERT_TRUE(net.Fit(x, y, opts).ok());
  EXPECT_LT(net.Mse(x, y), 0.01);
}

TEST(MlpTest, LearnsNonlinearFunction) {
  Rng rng(9);
  Matrix x, y;
  for (int i = 0; i < 800; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    x.push_back({a, b});
    y.push_back({a * b + 0.3 * a * a});
  }
  Mlp net({2, 32, 32, 1}, 5);
  Mlp::TrainOptions opts;
  opts.epochs = 300;
  opts.patience = 60;
  ASSERT_TRUE(net.Fit(x, y, opts).ok());
  EXPECT_LT(net.Mse(x, y), 0.01);
}

TEST(MlpTest, BatchPredictionMatchesSingle) {
  Mlp net({3, 8, 2}, 11);
  Matrix x = {{1, 0, -1}, {0.5, 0.5, 0.5}};
  auto batch = net.PredictBatch(x);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], net.Predict(x[0]));
  EXPECT_EQ(batch[1], net.Predict(x[1]));
}

TEST(MlpTest, FlatBatchBitwiseIdenticalToSingleRow) {
  // The GEMM path must accumulate each (row, output) dot product in the
  // same order as Predict: exact equality, not approximate.
  Mlp net({5, 16, 8, 3}, 21);
  Rng rng(4);
  const size_t rows = 100;  // spans several 32-row tiles plus a remainder
  std::vector<double> flat(rows * 5);
  for (auto& v : flat) v = rng.Uniform(-2, 2);
  std::vector<double> out(rows * 3);
  Mlp::BatchScratch scratch;
  net.PredictBatchInto(flat.data(), rows, out.data(), &scratch);
  for (size_t r = 0; r < rows; ++r) {
    const std::vector<double> row(flat.begin() + r * 5,
                                  flat.begin() + (r + 1) * 5);
    const auto single = net.Predict(row);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(out[r * 3 + k], single[k]) << "row " << r << " out " << k;
    }
  }
}

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Every row of a PredictBatchInto call equals Predict on it bit for bit,
// for `rows` from 1 to 17 and 100: full 8-row tiles, the rows past them,
// and 1-row calls alike.
void ExpectBatchRowsMatchPredict(const Mlp& net, uint64_t seed) {
  const size_t d = static_cast<size_t>(net.input_dim());
  const size_t k = static_cast<size_t>(net.output_dim());
  Rng rng(seed);
  Mlp::BatchScratch scratch;
  std::vector<size_t> row_counts;
  for (size_t rows = 1; rows <= 17; ++rows) row_counts.push_back(rows);
  row_counts.push_back(100);
  for (const size_t rows : row_counts) {
    std::vector<double> x(rows * d);
    for (auto& v : x) v = rng.Uniform(-2, 2);
    std::vector<double> out(rows * k);
    net.PredictBatchInto(x.data(), rows, out.data(), &scratch);
    for (size_t r = 0; r < rows; ++r) {
      const std::vector<double> row(x.begin() + r * d,
                                    x.begin() + (r + 1) * d);
      const std::vector<double> single = net.Predict(row);
      ASSERT_EQ(single.size(), k);
      EXPECT_TRUE(SameBits(out.data() + r * k, single.data(), k))
          << "inputs " << d << ", outputs " << k << ", rows " << rows
          << ", row " << r;
    }
  }
}

// Layer widths around the AVX2 kernel's register groups (4 outputs per
// register, up to 8 registers per pass) and its 512-input tile limit.
TEST(MlpTest, BatchRowsMatchPredictBitwiseAcrossShapes) {
  for (const int in : {1, 75, 513}) {
    for (const int out : {1, 2, 3, 4, 5, 12, 16, 24, 25}) {
      // The hidden layer runs the ReLU path at width `out`, the output
      // layer the linear one.
      const Mlp net({in, out, out}, static_cast<uint64_t>(in * 100 + out));
      ExpectBatchRowsMatchPredict(net, static_cast<uint64_t>(out));
    }
  }
}

Matrix RandomRows(Rng* rng, size_t n, size_t d) {
  Matrix m(n, std::vector<double>(d));
  for (auto& row : m) {
    for (auto& v : row) v = rng->Uniform(-1, 1);
  }
  return m;
}

// The kernel reads trained weights through the transposed copy on every
// row past the last full tile, and training runs 1-row forward passes, so
// the copy must follow every Adam step. With no validation split Fit ends
// on its last step, not on a restored snapshot.
TEST(MlpTest, TrainedWeightsReachEveryKernelPath) {
  Rng rng(12);
  const Matrix x = RandomRows(&rng, 96, 6);
  Matrix y;
  for (const auto& row : x) y.push_back({row[0] * row[1], row[2] - row[3]});
  for (const double validation : {0.0, 0.2}) {
    Mlp net({6, 12, 5, 2}, 3);
    Mlp::TrainOptions opts;
    opts.epochs = 6;
    opts.batch_size = 16;
    opts.validation_fraction = validation;
    ASSERT_TRUE(net.Fit(x, y, opts).ok());
    ExpectBatchRowsMatchPredict(net, 5);
  }
}

TEST(MlpTest, TwoFitsFromOneSeedGiveIdenticalWeights) {
  Rng rng(13);
  const Matrix x = RandomRows(&rng, 120, 7);
  Matrix y;
  for (const auto& row : x) y.push_back({row[0] + row[4] * row[5]});
  Mlp::TrainOptions opts;
  opts.epochs = 8;
  opts.batch_size = 16;
  Mlp a({7, 24, 12, 1}, 9);
  Mlp b({7, 24, 12, 1}, 9);
  ASSERT_TRUE(a.Fit(x, y, opts).ok());
  ASSERT_TRUE(b.Fit(x, y, opts).ok());
  // Bitwise-equal outputs over 100 rows on both kernel paths: with one
  // shared architecture this pins every weight the rows exercise.
  const Matrix probe = RandomRows(&rng, 100, 7);
  const Matrix pa = a.PredictBatch(probe);
  const Matrix pb = b.PredictBatch(probe);
  for (size_t r = 0; r < probe.size(); ++r) {
    EXPECT_TRUE(SameBits(pa[r].data(), pb[r].data(), 1)) << "row " << r;
    const auto sa = a.Predict(probe[r]);
    const auto sb = b.Predict(probe[r]);
    EXPECT_TRUE(SameBits(sa.data(), sb.data(), 1)) << "row " << r;
  }
  EXPECT_NE(a.Predict(probe[0]), Mlp({7, 24, 12, 1}, 9).Predict(probe[0]));
}

TEST(MlpTest, MseFlatMatchesMse) {
  Mlp net({2, 8, 1}, 3);
  Matrix x = {{0.1, 0.2}, {-0.5, 1.0}, {2.0, -1.0}};
  Matrix y = {{1.0}, {0.0}, {-1.0}};
  std::vector<double> xf, yf;
  for (const auto& r : x) xf.insert(xf.end(), r.begin(), r.end());
  for (const auto& r : y) yf.insert(yf.end(), r.begin(), r.end());
  Mlp::BatchScratch scratch;
  EXPECT_DOUBLE_EQ(net.MseFlat(xf.data(), yf.data(), x.size(), &scratch),
                   net.Mse(x, y));
}

TEST(RegressorTest, FitsPositiveTargetsInLogSpace) {
  Rng rng(13);
  Matrix x, y;
  for (int i = 0; i < 500; ++i) {
    const double a = rng.Uniform(0, 1);
    x.push_back({a});
    y.push_back({std::exp(3 * a)});  // spans 1..20
  }
  Regressor reg(1, 1, {16, 16}, 3);
  Mlp::TrainOptions opts;
  opts.epochs = 300;
  opts.patience = 60;
  ASSERT_TRUE(reg.Fit(x, y, opts).ok());
  EXPECT_TRUE(reg.trained());
  double wmape_num = 0, wmape_den = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double p = reg.Predict(x[i])[0];
    wmape_num += std::fabs(p - y[i][0]);
    wmape_den += y[i][0];
  }
  EXPECT_LT(wmape_num / wmape_den, 0.1);
}

TEST(RegressorTest, PredictionsNonNegative) {
  Regressor reg(2, 2, {8}, 1);
  Matrix x = {{0, 0}, {1, 1}};
  Matrix y = {{0.1, 0.2}, {0.3, 0.4}};
  Mlp::TrainOptions opts;
  opts.epochs = 5;
  ASSERT_TRUE(reg.Fit(x, y, opts).ok());
  for (double v : reg.Predict({0.5, 0.5})) EXPECT_GE(v, 0.0);
}

TEST(RegressorTest, UntrainedByDefault) {
  Regressor reg;
  EXPECT_FALSE(reg.trained());
}

TEST(RegressorTest, FlatBatchBitwiseIdenticalToSingleRow) {
  Regressor reg(2, 2, {8}, 1);
  Matrix x = {{0, 0}, {1, 1}, {0.3, 0.7}, {-0.2, 0.9}};
  Matrix y = {{0.1, 0.2}, {0.3, 0.4}, {0.2, 0.1}, {0.4, 0.3}};
  Mlp::TrainOptions opts;
  opts.epochs = 5;
  ASSERT_TRUE(reg.Fit(x, y, opts).ok());

  std::vector<double> flat;
  for (const auto& r : x) flat.insert(flat.end(), r.begin(), r.end());
  std::vector<double> out(x.size() * 2);
  Mlp::BatchScratch scratch;
  reg.PredictBatchInto(flat.data(), x.size(), out.data(), &scratch);
  for (size_t r = 0; r < x.size(); ++r) {
    const auto single = reg.Predict(x[r]);
    EXPECT_EQ(out[r * 2 + 0], single[0]) << "row " << r;
    EXPECT_EQ(out[r * 2 + 1], single[1]) << "row " << r;
  }
}

}  // namespace
}  // namespace sparkopt
