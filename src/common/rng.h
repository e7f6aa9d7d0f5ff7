#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

/// \file rng.h
/// \brief Deterministic pseudo-random number generation.
///
/// Every stochastic component in sparkopt (samplers, simulator noise,
/// evolutionary search, k-means initialization, model initialization)
/// draws from an explicitly seeded Rng so that tests, benchmarks, and
/// experiments are bit-reproducible across runs and platforms.

namespace sparkopt {

/// \brief xoshiro256** generator seeded via SplitMix64.
///
/// Small, fast, and high quality; independent streams are derived by
/// seeding with distinct 64-bit values (e.g. hash of query id + purpose).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBounded(uint64_t n) {
    // Lemire's nearly-divisionless bounded rejection.
    __uint128_t m = static_cast<__uint128_t>(Next()) * n;
    auto lo = static_cast<uint64_t>(m);
    if (lo < n) {
      uint64_t t = (-n) % n;
      while (lo < t) {
        m = static_cast<__uint128_t>(Next()) * n;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box-Muller (cached second value discarded for
  /// simplicity and statelessness).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = Uniform();
    double u2 = Uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(6.283185307179586 * u2);
    return mean + stddev * z;
  }

  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma) {
    return std::exp(Normal(mu, sigma));
  }

  /// Returns true with probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<int> Permutation(int n) {
    std::vector<int> p(n);
    for (int i = 0; i < n; ++i) p[i] = i;
    Shuffle(&p);
    return p;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t s_[4];
};

/// Stable 64-bit string/byte hash (FNV-1a), used to derive independent RNG
/// streams and to hash predicate tokens into feature buckets.
inline uint64_t Fnv1a(const void* data, size_t n,
                      uint64_t seed = 0xCBF29CE484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
}

/// SplitMix64's finalizer: a bijection in which every input bit flips
/// each output bit with probability about 1/2 (full avalanche).
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Hash of the bits of `n` doubles, one 64-bit word per step (one
/// multiply per word, where Fnv1a spends one per byte). Each step is a
/// bijection of the state, and its shift folds high bits down so the
/// next multiply carries them up again. Mix the result with Mix64 before
/// indexing by its low bits.
inline uint64_t HashWords(const double* v, size_t n,
                          uint64_t seed = 0xCBF29CE484222325ULL) {
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &v[i], sizeof(bits));
    h = (h ^ bits) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
  }
  return h;
}

inline void Rng::Seed(uint64_t seed) {
  // SplitMix64 to fill the state; avoids the all-zero state.
  uint64_t x = seed;
  for (auto& si : s_) {
    x += 0x9E3779B97F4A7C15ULL;
    si = Mix64(x);
  }
}

}  // namespace sparkopt
