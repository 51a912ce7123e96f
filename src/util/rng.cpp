#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace vdist::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& si : s_) si = splitmix64(sm);
  // Avoid the all-zero state (probability ~2^-256, but be exact).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Lemire's nearly-divisionless bounded sampling (with rejection).
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t t = (0 - range) % range;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::uniform(double lo, double hi) noexcept {
  // 53-bit mantissa-exact uniform in [0,1).
  const double u01 =
      static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  return lo + u01 * (hi - lo);
}

bool Rng::bernoulli(double p) noexcept {
  return bernoulli_below(bernoulli_threshold(p));
}

std::uint64_t Rng::bernoulli_threshold(double p) noexcept {
  if (!(p > 0.0)) return 0;  // also NaN: uniform() < NaN never holds
  // p * 2^53 is exact (a power-of-two scale of a value in (0, 1]).
  const double scaled = std::ldexp(std::min(p, 1.0), 53);
  return static_cast<std::uint64_t>(std::ceil(scaled));
}

double Rng::exponential(double lambda) noexcept {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

double Rng::normal(double mean, double stddev) noexcept {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

std::size_t Rng::zipf(const std::vector<double>& cdf) noexcept {
  const double u = uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf.begin());
  return std::min(idx, cdf.size() - 1);
}

std::vector<double> Rng::make_zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (auto& v : cdf) v /= total;
  return cdf;
}

Rng Rng::fork() noexcept { return Rng(next_u64() ^ 0xa3c59ac2f1b2c4d8ULL); }

}  // namespace vdist::util
