#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

/// \file mlp.h
/// \brief A small from-scratch multilayer perceptron with Adam, used as
/// the regressor on top of the plan embedding (the paper's GTN+regressor
/// stack, Section 4.3). Designed for the inference-throughput regime the
/// paper reports (10^4-10^5 predictions/second), which the MOO solving
/// times depend on.

namespace sparkopt {

/// Row-major dense matrix as nested vectors (sizes are small; clarity over
/// peak throughput, with a batched forward pass for the hot path).
using Matrix = std::vector<std::vector<double>>;

/// \brief Per-feature standardization fitted on training data.
struct Standardizer {
  std::vector<double> mean;
  std::vector<double> stddev;

  void Fit(const Matrix& x);
  std::vector<double> Transform(const std::vector<double>& x) const;
  void TransformInPlace(std::vector<double>* x) const;
};

/// \brief Fully connected network with ReLU hidden activations and a
/// linear output layer, trained with Adam on mean squared error.
class Mlp {
 public:
  /// `layers` = {input_dim, hidden..., output_dim}.
  Mlp(std::vector<int> layers, uint64_t seed);

  /// \brief Reusable scratch for the batched forward pass. One instance
  /// per thread: the buffers are ping-ponged between layers, so sharing
  /// one across concurrent calls would corrupt activations.
  struct BatchScratch {
    std::vector<double> a, b;
    /// Standardized-input staging area (used by Regressor's batch path).
    std::vector<double> xs;
  };

  struct TrainOptions {
    int epochs = 80;
    int batch_size = 64;
    double learning_rate = 1.5e-3;
    double weight_decay = 1e-6;
    /// Early stop when validation loss fails to improve this many epochs.
    int patience = 12;
    double validation_fraction = 0.1;
    uint64_t seed = 7;
  };

  /// Trains on (x, y); both row counts must match. Inputs should already
  /// be standardized; targets are fit in the caller's space.
  Status Fit(const Matrix& x, const Matrix& y, const TrainOptions& opts);

  /// Single-sample inference.
  std::vector<double> Predict(const std::vector<double>& x) const;
  /// Batched inference (hot path of the MOO solvers).
  Matrix PredictBatch(const Matrix& x) const;

  /// \brief Batched inference over a flat row-major buffer
  /// `x[rows * input_dim]`, writing `out[rows * output_dim]`.
  ///
  /// This is the GEMM-style hot path: one blocked matrix-matrix product
  /// per layer over reused scratch, no per-row vector churn. Each
  /// (row, output) dot product accumulates in the same index order as
  /// `Predict`, so results are bitwise identical to the per-row path.
  void PredictBatchInto(const double* x, size_t rows, double* out,
                        BatchScratch* scratch) const;

  /// Mean squared error over a dataset.
  double Mse(const Matrix& x, const Matrix& y) const;

  /// Mse over flat row-major buffers (batched; reuses `scratch`).
  double MseFlat(const double* x, const double* y, size_t rows,
                 BatchScratch* scratch) const;

  int input_dim() const { return layers_.front(); }
  int output_dim() const { return layers_.back(); }

 private:
  struct Layer {
    std::vector<double> w;  ///< out x in, row-major
    std::vector<double> b;  ///< out
    /// w transposed, in x out rounded up to a multiple of 4 (zero-padded):
    /// the AVX2 kernel's rows past the last full tile read four outputs'
    /// weights per load. Rebuilt by Transpose() whenever w changes.
    std::vector<double> wt;
    int in = 0, out = 0;

    void Transpose();
  };

  void Forward(const std::vector<double>& x,
               std::vector<std::vector<double>>* activations) const;

  std::vector<int> layers_;
  std::vector<Layer> net_;
};

/// \brief Convenience wrapper bundling input standardization, log1p
/// target transform, and the MLP. This is the shape all three model
/// targets (subQ, QS, collapsed-LQP) share.
class Regressor {
 public:
  Regressor() = default;
  Regressor(int input_dim, int output_dim, std::vector<int> hidden,
            uint64_t seed);

  /// Fits the standardizer and trains on log1p-transformed targets.
  Status Fit(const Matrix& x, const Matrix& y_raw,
             const Mlp::TrainOptions& opts);

  /// Predicts raw-space targets (inverse log1p, clamped at >= 0).
  std::vector<double> Predict(const std::vector<double>& x) const;
  Matrix PredictBatch(const Matrix& x) const;

  /// \brief Batched raw-space prediction over a flat row-major buffer
  /// `x[rows * input_dim]` into `out[rows * output_dim]`: one
  /// standardize pass (in scratch, inputs untouched), one batched MLP
  /// forward, one exp/clamp pass. Bitwise identical to per-row Predict.
  void PredictBatchInto(const double* x, size_t rows, double* out,
                        Mlp::BatchScratch* scratch) const;

  int input_dim() const { return mlp_.input_dim(); }
  int output_dim() const { return mlp_.output_dim(); }
  bool trained() const { return trained_; }

 private:
  Standardizer stdizer_;
  Mlp mlp_{{1, 1}, 0};
  bool trained_ = false;
};

}  // namespace sparkopt
