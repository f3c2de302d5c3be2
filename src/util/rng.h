// Deterministic pseudo-random number generation.
//
// Every stochastic component in qreg takes an explicit 64-bit seed so that
// experiments are exactly reproducible run-to-run. The engine is
// xoshiro256** (Blackman & Vigna), seeded via SplitMix64, which is both
// faster and statistically stronger than std::mt19937_64 for our workloads.

#ifndef QREG_UTIL_RNG_H_
#define QREG_UTIL_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace qreg {
namespace util {

/// \brief SplitMix64 step; used for seeding and cheap hash-like mixing.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// \brief Deterministic RNG with uniform / Gaussian / integer helpers.
///
/// Not thread-safe; create one Rng per thread or component.
class Rng {
 public:
  /// Seeds the generator; distinct seeds give independent-looking streams.
  explicit Rng(uint64_t seed = 0xC0FFEE123456789ULL) {
    uint64_t sm = seed;
    for (int i = 0; i < 4; ++i) s_[i] = SplitMix64(&sm);
  }

  /// Next raw 64-bit value (xoshiro256**).
  uint64_t NextU64() {
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
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n); n must be > 0.
  uint64_t UniformInt(uint64_t n) {
    // Lemire's multiply-shift rejection method (unbiased).
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < n) {
      uint64_t t = (0 - n) % n;
      while (l < t) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method (cached pair).
  double Gaussian() {
    if (has_gauss_) {
      has_gauss_ = false;
      return cached_gauss_;
    }
    double u, v, s;
    do {
      u = 2.0 * Uniform() - 1.0;
      v = 2.0 * Uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    cached_gauss_ = v * f;
    has_gauss_ = true;
    return u * f;
  }

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool has_gauss_ = false;
  double cached_gauss_ = 0.0;
};

/// \brief Derives `n` independent child seeds from a master seed.
std::vector<uint64_t> DeriveSeeds(uint64_t master_seed, size_t n);

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_RNG_H_
