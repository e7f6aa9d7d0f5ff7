#include "model/mlp.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "common/rng.h"
#include "obs/trace.h"

namespace sparkopt {

void Standardizer::Fit(const Matrix& x) {
  if (x.empty()) return;
  const size_t d = x[0].size();
  mean.assign(d, 0.0);
  stddev.assign(d, 0.0);
  for (const auto& row : x) {
    for (size_t j = 0; j < d; ++j) mean[j] += row[j];
  }
  for (size_t j = 0; j < d; ++j) mean[j] /= static_cast<double>(x.size());
  for (const auto& row : x) {
    for (size_t j = 0; j < d; ++j) {
      const double dv = row[j] - mean[j];
      stddev[j] += dv * dv;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    stddev[j] = std::sqrt(stddev[j] / static_cast<double>(x.size()));
    if (stddev[j] < 1e-9) stddev[j] = 1.0;
  }
}

std::vector<double> Standardizer::Transform(
    const std::vector<double>& x) const {
  std::vector<double> out = x;
  TransformInPlace(&out);
  return out;
}

void Standardizer::TransformInPlace(std::vector<double>* x) const {
  const size_t d = std::min(x->size(), mean.size());
  for (size_t j = 0; j < d; ++j) {
    // Clamp extreme z-scores: rare outlier features (heavy skew ratios,
    // contention spikes) otherwise push the ReLU net far outside its
    // training envelope and destabilize log-space predictions.
    (*x)[j] = std::clamp(((*x)[j] - mean[j]) / stddev[j], -10.0, 10.0);
  }
}

Mlp::Mlp(std::vector<int> layers, uint64_t seed) : layers_(std::move(layers)) {
  Rng rng(seed);
  net_.resize(layers_.size() - 1);
  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    auto& layer = net_[l];
    layer.in = layers_[l];
    layer.out = layers_[l + 1];
    layer.w.resize(static_cast<size_t>(layer.in) * layer.out);
    layer.b.assign(layer.out, 0.0);
    // He initialization for ReLU nets.
    const double scale = std::sqrt(2.0 / layer.in);
    for (auto& w : layer.w) w = rng.Normal(0.0, scale);
    layer.Transpose();
  }
}

void Mlp::Layer::Transpose() {
  const size_t pad = (static_cast<size_t>(out) + 3) & ~size_t{3};
  wt.assign(static_cast<size_t>(in) * pad, 0.0);
  for (int o = 0; o < out; ++o) {
    for (int i = 0; i < in; ++i) {
      wt[static_cast<size_t>(i) * pad + o] =
          w[static_cast<size_t>(o) * in + i];
    }
  }
}

namespace {

/// Dense-layer kernel contract:
///   out[r * n_out + o] = act(b[o] + sum_i w[o * n_in + i] * in[r * n_in + i])
/// with the sum accumulated in ascending i. `wt` is the layer's
/// transposed copy (Mlp::Layer::wt). One kernel is selected at
/// startup (AVX2+FMA when the CPU has it, the portable scalar kernel
/// otherwise) and used by BOTH the single-row path (Mlp::Forward, and
/// therefore Predict) and the batched path (PredictBatchInto). That
/// shared selection is what makes batched results bitwise identical to
/// per-row results: within one kernel every accumulator performs the
/// exact same rounding sequence regardless of how many rows are in
/// flight.
using DenseKernel = void (*)(const double* in, size_t rows, const double* w,
                             const double* wt, const double* b, int n_in,
                             int n_out, bool relu, double* out);

/// Portable kernel. Rows are tiled so the active weight row stays hot
/// across the tile, and processed four at a time: four independent
/// accumulator chains hide the FP-add latency that bounds a
/// one-chain-per-dot-product GEMV. Each chain sums `s += w * x` in the
/// same i order as the scalar remainder loop, so results are bitwise
/// identical at any batch size.
void DenseLayerGeneric(const double* in, size_t rows, const double* w,
                       const double* /*wt*/, const double* b, int n_in,
                       int n_out, bool relu, double* out) {
  constexpr size_t kRowTile = 32;
  for (size_t r0 = 0; r0 < rows; r0 += kRowTile) {
    const size_t r1 = std::min(r0 + kRowTile, rows);
    for (int o = 0; o < n_out; ++o) {
      const double* wrow = w + static_cast<size_t>(o) * n_in;
      const double bias = b[o];
      size_t r = r0;
      for (; r + 4 <= r1; r += 4) {
        const double* x0 = in + r * n_in;
        const double* x1 = x0 + n_in;
        const double* x2 = x1 + n_in;
        const double* x3 = x2 + n_in;
        double s0 = bias, s1 = bias, s2 = bias, s3 = bias;
        for (int i = 0; i < n_in; ++i) {
          const double wi = wrow[i];
          s0 += wi * x0[i];
          s1 += wi * x1[i];
          s2 += wi * x2[i];
          s3 += wi * x3[i];
        }
        double* or_ = out + r * n_out + o;
        or_[0] = relu ? std::max(s0, 0.0) : s0;
        or_[n_out] = relu ? std::max(s1, 0.0) : s1;
        or_[2 * static_cast<size_t>(n_out)] = relu ? std::max(s2, 0.0) : s2;
        or_[3 * static_cast<size_t>(n_out)] = relu ? std::max(s3, 0.0) : s3;
      }
      for (; r < r1; ++r) {
        const double* xr = in + r * n_in;
        double s = bias;
        for (int i = 0; i < n_in; ++i) s += wrow[i] * xr[i];
        out[r * n_out + o] = relu ? std::max(s, 0.0) : s;
      }
    }
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

/// Widest layer the transposed-tile path handles on the stack
/// (8 lanes * 512 doubles = 32 KiB); wider layers take the row path
/// below, which uses the identical rounding sequence.
constexpr int kMaxTransposeIn = 512;

/// ReLU that mirrors `(s < 0.0) ? 0.0 : s` per lane (NaN passes through,
/// exactly like std::max(s, 0.0)).
__attribute__((target("avx2,fma"))) inline __m256d ReluPd(__m256d s) {
  const __m256d zero = _mm256_setzero_pd();
  return _mm256_blendv_pd(s, zero, _mm256_cmp_pd(s, zero, _CMP_LT_OQ));
}

/// Lane mask for the first min(count, 4) lanes.
__attribute__((target("avx2,fma"))) inline __m256i LaneMask(int count) {
  return _mm256_set_epi64x(count > 3 ? -1 : 0, count > 2 ? -1 : 0,
                           count > 1 ? -1 : 0, count > 0 ? -1 : 0);
}

/// Outputs [o, o + 4 * NV) of one row, four per register: lane o of
/// register v computes fma(w[o][i], x[i], s) in ascending i, reading four
/// outputs' weights per load from the transposed copy (row stride
/// `n_pad`). Lanes past n_out are neither loaded from `b` nor stored.
template <int NV>
__attribute__((target("avx2,fma"))) void DenseRowOutputs(
    const double* xr, const double* wt, const double* b, int n_in,
    int n_out, int n_pad, int o, bool relu, double* orow) {
  __m256d acc[NV];
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) {
    acc[v] = _mm256_maskload_pd(b + o + 4 * v, LaneMask(n_out - o - 4 * v));
  }
  const double* wrow = wt + o;
  for (int i = 0; i < n_in; ++i, wrow += n_pad) {
    const __m256d xi = _mm256_set1_pd(xr[i]);
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_fmadd_pd(_mm256_loadu_pd(wrow + 4 * v), xi, acc[v]);
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) {
    _mm256_maskstore_pd(orow + o + 4 * v, LaneMask(n_out - o - 4 * v),
                        relu ? ReluPd(acc[v]) : acc[v]);
  }
}

/// AVX2+FMA kernel, compiled for that target and only dispatched to when
/// the CPU supports it. Eight rows are transposed into a column-major
/// tile so each inner step is a broadcast of w[i] against contiguous
/// loads of eight rows' x[i]; four outputs are computed per pass, giving
/// 4 x 2 = 8 independent packed vfmadd chains — enough to hide the FMA
/// latency that bounds a single dot-product chain. Rows past the last
/// full tile (and every row of a layer wider than kMaxTransposeIn) take
/// DenseRowOutputs, up to eight registers of four outputs each, so a
/// 1-row call runs as many independent chains as the layer has output
/// registers instead of one scalar chain per output. Every chain (tile
/// lane or row lane) computes fma(w[i], x[i], s) in ascending i with the
/// same fused rounding, so rows==1 and rows==N agree bitwise.
__attribute__((target("avx2,fma"))) void DenseLayerAvx2(
    const double* in, size_t rows, const double* w, const double* wt,
    const double* b, int n_in, int n_out, bool relu, double* out) {
  constexpr size_t kLanes = 8;
  size_t r = 0;
  if (n_in <= kMaxTransposeIn) {
    alignas(32) double xt[kLanes * kMaxTransposeIn];
    alignas(32) double sv[kLanes];
    for (; r + kLanes <= rows; r += kLanes) {
      const double* base = in + r * n_in;
      for (int i = 0; i < n_in; ++i) {
        for (size_t k = 0; k < kLanes; ++k) {
          xt[static_cast<size_t>(i) * kLanes + k] = base[k * n_in + i];
        }
      }
      int o = 0;
      for (; o + 4 <= n_out; o += 4) {
        const double* w0 = w + static_cast<size_t>(o) * n_in;
        const double* w1 = w0 + n_in;
        const double* w2 = w1 + n_in;
        const double* w3 = w2 + n_in;
        __m256d a0 = _mm256_set1_pd(b[o]), b0 = a0;
        __m256d a1 = _mm256_set1_pd(b[o + 1]), b1 = a1;
        __m256d a2 = _mm256_set1_pd(b[o + 2]), b2 = a2;
        __m256d a3 = _mm256_set1_pd(b[o + 3]), b3 = a3;
        const double* col = xt;
        for (int i = 0; i < n_in; ++i, col += kLanes) {
          const __m256d xlo = _mm256_load_pd(col);
          const __m256d xhi = _mm256_load_pd(col + 4);
          const __m256d wi0 = _mm256_set1_pd(w0[i]);
          a0 = _mm256_fmadd_pd(wi0, xlo, a0);
          b0 = _mm256_fmadd_pd(wi0, xhi, b0);
          const __m256d wi1 = _mm256_set1_pd(w1[i]);
          a1 = _mm256_fmadd_pd(wi1, xlo, a1);
          b1 = _mm256_fmadd_pd(wi1, xhi, b1);
          const __m256d wi2 = _mm256_set1_pd(w2[i]);
          a2 = _mm256_fmadd_pd(wi2, xlo, a2);
          b2 = _mm256_fmadd_pd(wi2, xhi, b2);
          const __m256d wi3 = _mm256_set1_pd(w3[i]);
          a3 = _mm256_fmadd_pd(wi3, xlo, a3);
          b3 = _mm256_fmadd_pd(wi3, xhi, b3);
        }
        const __m256d accs[4][2] = {{a0, b0}, {a1, b1}, {a2, b2}, {a3, b3}};
        for (int j = 0; j < 4; ++j) {
          _mm256_store_pd(sv, relu ? ReluPd(accs[j][0]) : accs[j][0]);
          _mm256_store_pd(sv + 4, relu ? ReluPd(accs[j][1]) : accs[j][1]);
          double* orow = out + r * n_out + o + j;
          for (size_t k = 0; k < kLanes; ++k) orow[k * n_out] = sv[k];
        }
      }
      for (; o < n_out; ++o) {
        const double* wrow = w + static_cast<size_t>(o) * n_in;
        __m256d alo = _mm256_set1_pd(b[o]), ahi = alo;
        const double* col = xt;
        for (int i = 0; i < n_in; ++i, col += kLanes) {
          const __m256d wi = _mm256_set1_pd(wrow[i]);
          alo = _mm256_fmadd_pd(wi, _mm256_load_pd(col), alo);
          ahi = _mm256_fmadd_pd(wi, _mm256_load_pd(col + 4), ahi);
        }
        _mm256_store_pd(sv, relu ? ReluPd(alo) : alo);
        _mm256_store_pd(sv + 4, relu ? ReluPd(ahi) : ahi);
        double* orow = out + r * n_out + o;
        for (size_t k = 0; k < kLanes; ++k) orow[k * n_out] = sv[k];
      }
    }
  }
  using RowOutputs = void (*)(const double*, const double*, const double*,
                             int, int, int, int, bool, double*);
  static constexpr RowOutputs kRowOutputs[] = {
      nullptr,
      &DenseRowOutputs<1>,
      &DenseRowOutputs<2>,
      &DenseRowOutputs<3>,
      &DenseRowOutputs<4>,
      &DenseRowOutputs<5>,
      &DenseRowOutputs<6>,
      &DenseRowOutputs<7>,
      &DenseRowOutputs<8>};
  const int n_pad = (n_out + 3) & ~3;
  for (; r < rows; ++r) {
    const double* xr = in + r * n_in;
    double* orow = out + r * n_out;
    int o = 0;
    for (; o + 32 <= n_pad; o += 32) {
      DenseRowOutputs<8>(xr, wt, b, n_in, n_out, n_pad, o, relu, orow);
    }
    if (o < n_pad) {
      kRowOutputs[(n_pad - o) / 4](xr, wt, b, n_in, n_out, n_pad, o, relu,
                                   orow);
    }
  }
}

#endif  // x86-64 && (GCC || Clang)

DenseKernel ActiveDenseKernel() {
  static const DenseKernel kernel = [] {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return &DenseLayerAvx2;
    }
#endif
    return &DenseLayerGeneric;
  }();
  return kernel;
}

}  // namespace

void Mlp::Forward(const std::vector<double>& x,
                  std::vector<std::vector<double>>* activations) const {
  const DenseKernel kernel = ActiveDenseKernel();
  activations->clear();
  activations->push_back(x);
  for (size_t l = 0; l < net_.size(); ++l) {
    const auto& layer = net_[l];
    const auto& in = activations->back();
    std::vector<double> out(layer.out);
    // ReLU on hidden layers only.
    kernel(in.data(), 1, layer.w.data(), layer.wt.data(), layer.b.data(),
           layer.in, layer.out, /*relu=*/l + 1 < net_.size(), out.data());
    activations->push_back(std::move(out));
  }
}

std::vector<double> Mlp::Predict(const std::vector<double>& x) const {
  std::vector<std::vector<double>> acts;
  Forward(x, &acts);
  return acts.back();
}

void Mlp::PredictBatchInto(const double* x, size_t rows, double* out,
                           BatchScratch* scratch) const {
  if (rows == 0) return;
  size_t max_width = 0;
  for (const auto& layer : net_) {
    max_width = std::max(max_width, static_cast<size_t>(layer.out));
  }
  scratch->a.resize(rows * max_width);
  scratch->b.resize(rows * max_width);

  const DenseKernel kernel = ActiveDenseKernel();
  const double* in = x;
  double* ping = scratch->a.data();
  double* pong = scratch->b.data();
  for (size_t l = 0; l < net_.size(); ++l) {
    const auto& layer = net_[l];
    const bool last = l + 1 == net_.size();
    double* dst = last ? out : ping;
    kernel(in, rows, layer.w.data(), layer.wt.data(), layer.b.data(),
           layer.in, layer.out, /*relu=*/!last, dst);
    in = dst;
    std::swap(ping, pong);
  }
}

Matrix Mlp::PredictBatch(const Matrix& x) const {
  Matrix out(x.size(), std::vector<double>(layers_.back()));
  if (x.empty()) return out;
  BatchScratch scratch;
  std::vector<double> flat(x.size() * layers_.front());
  for (size_t r = 0; r < x.size(); ++r) {
    std::copy(x[r].begin(), x[r].end(),
              flat.begin() + r * layers_.front());
  }
  std::vector<double> pred(x.size() * layers_.back());
  PredictBatchInto(flat.data(), x.size(), pred.data(), &scratch);
  for (size_t r = 0; r < x.size(); ++r) {
    std::copy(pred.begin() + r * layers_.back(),
              pred.begin() + (r + 1) * layers_.back(), out[r].begin());
  }
  return out;
}

double Mlp::MseFlat(const double* x, const double* y, size_t rows,
                    BatchScratch* scratch) const {
  if (rows == 0) return 0.0;
  const int k = layers_.back();
  scratch->xs.resize(rows * k);
  PredictBatchInto(x, rows, scratch->xs.data(), scratch);
  double total = 0.0;
  for (size_t i = 0; i < rows * static_cast<size_t>(k); ++i) {
    const double d = scratch->xs[i] - y[i];
    total += d * d;
  }
  return total / (static_cast<double>(rows) * k);
}

double Mlp::Mse(const Matrix& x, const Matrix& y) const {
  if (x.empty()) return 0.0;
  const int d_in = layers_.front();
  const int k = layers_.back();
  std::vector<double> xf(x.size() * d_in);
  std::vector<double> yf(x.size() * k);
  for (size_t i = 0; i < x.size(); ++i) {
    std::copy(x[i].begin(), x[i].end(), xf.begin() + i * d_in);
    std::copy(y[i].begin(), y[i].end(), yf.begin() + i * k);
  }
  BatchScratch scratch;
  return MseFlat(xf.data(), yf.data(), x.size(), &scratch);
}

Status Mlp::Fit(const Matrix& x, const Matrix& y, const TrainOptions& opts) {
  if (x.size() != y.size() || x.empty()) {
    return Status::InvalidArgument("Fit: x/y size mismatch or empty");
  }
  if (static_cast<int>(x[0].size()) != layers_.front() ||
      static_cast<int>(y[0].size()) != layers_.back()) {
    return Status::InvalidArgument("Fit: dimension mismatch with network");
  }
  Rng rng(opts.seed);

  // Train/validation split.
  std::vector<int> order = rng.Permutation(static_cast<int>(x.size()));
  const size_t n_val = std::min(
      x.size() - 1,
      static_cast<size_t>(opts.validation_fraction * x.size()));
  std::vector<int> val_idx(order.begin(), order.begin() + n_val);
  std::vector<int> train_idx(order.begin() + n_val, order.end());

  // Adam state.
  struct AdamState {
    std::vector<double> mw, vw, mb, vb;
  };
  std::vector<AdamState> adam(net_.size());
  for (size_t l = 0; l < net_.size(); ++l) {
    adam[l].mw.assign(net_[l].w.size(), 0.0);
    adam[l].vw.assign(net_[l].w.size(), 0.0);
    adam[l].mb.assign(net_[l].b.size(), 0.0);
    adam[l].vb.assign(net_[l].b.size(), 0.0);
  }
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  int64_t step = 0;

  std::vector<Layer> best = net_;
  double best_val = 1e300;
  int bad_epochs = 0;

  // Validation split, flattened once up front; the epoch loop only runs
  // the batched forward pass over it (previously the xv/yv matrices were
  // rebuilt from scratch every epoch).
  std::vector<double> xv_flat(n_val * layers_.front());
  std::vector<double> yv_flat(n_val * layers_.back());
  for (size_t v = 0; v < n_val; ++v) {
    const int i = val_idx[v];
    std::copy(x[i].begin(), x[i].end(),
              xv_flat.begin() + v * layers_.front());
    std::copy(y[i].begin(), y[i].end(),
              yv_flat.begin() + v * layers_.back());
  }
  BatchScratch val_scratch;

  std::vector<std::vector<double>> acts;
  // Per-layer gradient buffers.
  std::vector<std::vector<double>> gw(net_.size()), gb(net_.size());
  for (size_t l = 0; l < net_.size(); ++l) {
    gw[l].assign(net_[l].w.size(), 0.0);
    gb[l].assign(net_[l].b.size(), 0.0);
  }

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    for (size_t start = 0; start < train_idx.size();
         start += opts.batch_size) {
      const size_t end =
          std::min(start + opts.batch_size, train_idx.size());
      for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0);
      for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0);
      for (size_t s = start; s < end; ++s) {
        const int i = train_idx[s];
        Forward(x[i], &acts);
        // Backprop: delta at output = 2 (pred - y) / k.
        std::vector<double> delta(net_.back().out);
        for (int o = 0; o < net_.back().out; ++o) {
          delta[o] = 2.0 * (acts.back()[o] - y[i][o]) / net_.back().out;
        }
        for (int l = static_cast<int>(net_.size()) - 1; l >= 0; --l) {
          const auto& layer = net_[l];
          const auto& input = acts[l];
          for (int o = 0; o < layer.out; ++o) {
            gb[l][o] += delta[o];
            double* gwrow = &gw[l][static_cast<size_t>(o) * layer.in];
            for (int ii = 0; ii < layer.in; ++ii) {
              gwrow[ii] += delta[o] * input[ii];
            }
          }
          if (l > 0) {
            std::vector<double> prev(layer.in, 0.0);
            for (int o = 0; o < layer.out; ++o) {
              const double* wrow =
                  &layer.w[static_cast<size_t>(o) * layer.in];
              for (int ii = 0; ii < layer.in; ++ii) {
                prev[ii] += wrow[ii] * delta[o];
              }
            }
            // ReLU derivative of the hidden activation.
            for (int ii = 0; ii < layer.in; ++ii) {
              if (acts[l][ii] <= 0.0) prev[ii] = 0.0;
            }
            delta = std::move(prev);
          }
        }
      }
      // Adam update with the batch-mean gradient.
      ++step;
      const double inv_batch = 1.0 / static_cast<double>(end - start);
      const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
      for (size_t l = 0; l < net_.size(); ++l) {
        auto& layer = net_[l];
        for (size_t j = 0; j < layer.w.size(); ++j) {
          const double g =
              gw[l][j] * inv_batch + opts.weight_decay * layer.w[j];
          adam[l].mw[j] = beta1 * adam[l].mw[j] + (1 - beta1) * g;
          adam[l].vw[j] = beta2 * adam[l].vw[j] + (1 - beta2) * g * g;
          layer.w[j] -= opts.learning_rate * (adam[l].mw[j] / bc1) /
                        (std::sqrt(adam[l].vw[j] / bc2) + eps);
        }
        for (size_t j = 0; j < layer.b.size(); ++j) {
          const double g = gb[l][j] * inv_batch;
          adam[l].mb[j] = beta1 * adam[l].mb[j] + (1 - beta1) * g;
          adam[l].vb[j] = beta2 * adam[l].vb[j] + (1 - beta2) * g * g;
          layer.b[j] -= opts.learning_rate * (adam[l].mb[j] / bc1) /
                        (std::sqrt(adam[l].vb[j] / bc2) + eps);
        }
        layer.Transpose();
      }
    }
    // Early stopping on the validation split.
    if (!val_idx.empty()) {
      const double val =
          MseFlat(xv_flat.data(), yv_flat.data(), n_val, &val_scratch);
      if (val < best_val - 1e-12) {
        best_val = val;
        best = net_;
        bad_epochs = 0;
      } else if (++bad_epochs > opts.patience) {
        break;
      }
    }
  }
  if (best_val < 1e300) net_ = best;
  return Status::OK();
}

Regressor::Regressor(int input_dim, int output_dim, std::vector<int> hidden,
                     uint64_t seed)
    : mlp_([&] {
        std::vector<int> layers;
        layers.push_back(input_dim);
        for (int h : hidden) layers.push_back(h);
        layers.push_back(output_dim);
        return layers;
      }(), seed) {}

namespace {
// Floored-log target transform: log(y + eps) makes the MSE a relative
// error across the full dynamic range (log1p under-resolves sub-second
// targets). eps = 1 ms in the latency unit.
constexpr double kTargetEps = 1e-3;
// Bound on log-space predictions (exp(28) ~ 1.4e12): keeps a diverging
// sample from producing astronomically wrong raw-space values.
constexpr double kMaxLogPred = 28.0;
}  // namespace

Status Regressor::Fit(const Matrix& x, const Matrix& y_raw,
                      const Mlp::TrainOptions& opts) {
  stdizer_.Fit(x);
  Matrix xs = x;
  for (auto& row : xs) stdizer_.TransformInPlace(&row);
  Matrix ys = y_raw;
  for (auto& row : ys) {
    for (auto& v : row) v = std::log(std::max(v, 0.0) + kTargetEps);
  }
  SPARKOPT_RETURN_NOT_OK(mlp_.Fit(xs, ys, opts));
  trained_ = true;
  return Status::OK();
}

std::vector<double> Regressor::Predict(const std::vector<double>& x) const {
  // In-place path: one reusable standardized copy, batched forward with
  // rows = 1. Thread-local scratch keeps concurrent solver threads from
  // sharing activation buffers.
  thread_local Mlp::BatchScratch scratch;
  thread_local std::vector<double> xs;
  xs.assign(x.begin(), x.end());
  stdizer_.TransformInPlace(&xs);
  std::vector<double> p(mlp_.output_dim());
  mlp_.PredictBatchInto(xs.data(), 1, p.data(), &scratch);
  for (auto& v : p) {
    v = std::exp(std::min(v, kMaxLogPred)) - kTargetEps;
    v = std::max(v, 0.0);
  }
  return p;
}

void Regressor::PredictBatchInto(const double* x, size_t rows, double* out,
                                 Mlp::BatchScratch* scratch) const {
  if (rows == 0) return;
  // Rows-per-batch distribution: the AVX2 kernel hits peak throughput
  // only at batch >= 64, so this histogram shows whether callers
  // amortize the batched path or degenerate to per-row calls
  // (worker-thread safe; one relaxed load when no session).
  obs::Observe("model.batch_rows", static_cast<double>(rows));
  const size_t d = mlp_.input_dim();
  // One standardize pass over the whole batch, staged in scratch so the
  // caller's inputs stay untouched.
  scratch->xs.assign(x, x + rows * d);
  const size_t dm = std::min(d, stdizer_.mean.size());
  for (size_t r = 0; r < rows; ++r) {
    double* xr = scratch->xs.data() + r * d;
    for (size_t j = 0; j < dm; ++j) {
      xr[j] = std::clamp((xr[j] - stdizer_.mean[j]) / stdizer_.stddev[j],
                         -10.0, 10.0);
    }
  }
  mlp_.PredictBatchInto(scratch->xs.data(), rows, out, scratch);
  const size_t k = mlp_.output_dim();
  for (size_t i = 0; i < rows * k; ++i) {
    out[i] = std::max(std::exp(std::min(out[i], kMaxLogPred)) - kTargetEps,
                      0.0);
  }
}

Matrix Regressor::PredictBatch(const Matrix& x) const {
  Matrix out(x.size(), std::vector<double>(mlp_.output_dim()));
  if (x.empty()) return out;
  const size_t d = mlp_.input_dim();
  const size_t k = mlp_.output_dim();
  Mlp::BatchScratch scratch;
  std::vector<double> flat(x.size() * d);
  for (size_t r = 0; r < x.size(); ++r) {
    std::copy(x[r].begin(), x[r].end(), flat.begin() + r * d);
  }
  std::vector<double> pred(x.size() * k);
  PredictBatchInto(flat.data(), x.size(), pred.data(), &scratch);
  for (size_t r = 0; r < x.size(); ++r) {
    std::copy(pred.begin() + r * k, pred.begin() + (r + 1) * k,
              out[r].begin());
  }
  return out;
}

}  // namespace sparkopt
