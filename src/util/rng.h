// Deterministic, explicitly-seeded random number generation.
//
// All randomness in generators, benches and property tests flows through
// Rng so every experiment is reproducible from a printed seed. The core is
// xoshiro256** seeded via SplitMix64, which is fast, high quality, and has
// a trivially portable implementation (no libstdc++ distribution drift:
// we implement the distributions we need ourselves so results are stable
// across standard libraries).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace vdist::util {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next_u64(); }

  // xoshiro256**. Inline: generators draw it once per (stream, user).
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) noexcept;

  // Bernoulli trial with success probability p (clamped to [0,1]):
  // uniform() < p, decided on the integer draw. uniform() is
  // (next_u64() >> 11) * 2^-53, and for an integer k, k * 2^-53 < p
  // exactly when k < ceil(p * 2^53) = bernoulli_threshold(p). Callers
  // drawing many trials at one p compute the threshold once and call
  // bernoulli_below() per trial: same draws, same outcomes.
  bool bernoulli(double p) noexcept;
  [[nodiscard]] static std::uint64_t bernoulli_threshold(double p) noexcept;
  bool bernoulli_below(std::uint64_t threshold) noexcept {
    return (next_u64() >> 11) < threshold;
  }

  // Standard exponential with rate lambda (> 0).
  double exponential(double lambda) noexcept;

  // Approximate normal via sum of uniforms is not acceptable; we use
  // Box-Muller (one value per call, second value discarded for simplicity).
  double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  // Zipf-distributed rank in [0, n) with exponent s >= 0 (s = 0 is uniform).
  // Uses inverse-CDF on precomputed weights when n is small; rejection
  // sampling otherwise. For our catalog sizes (<= ~1e5) inverse CDF is fine,
  // so this class offers a helper that builds the CDF once.
  std::size_t zipf(const std::vector<double>& cdf) noexcept;

  // Builds a normalized Zipf CDF over n ranks with exponent s.
  static std::vector<double> make_zipf_cdf(std::size_t n, double s);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Derives an independent child generator (for parallel-safe workloads).
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace vdist::util
