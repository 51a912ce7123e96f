#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

namespace vdist::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BernoulliIsUniformBelowPDrawForDraw) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const double p : {0.0, tiny, 1e-300, 0x1p-53, 0x1p-53 + 0x1p-105, 1e-3,
                         0.0025, 0.1, 1.0 / 3.0, 0.5, 1.0 - 0x1p-53, 1.0, 2.0,
                         -1.0}) {
    Rng a(99), b(99), c(99);
    const std::uint64_t below = Rng::bernoulli_threshold(p);
    for (int i = 0; i < 20000; ++i) {
      const bool want = c.uniform() < std::clamp(p, 0.0, 1.0);
      ASSERT_EQ(a.bernoulli_below(below), want) << "p " << p;
      ASSERT_EQ(b.bernoulli(p), want) << "p " << p;
    }
  }
  // Exactly at the boundary: k * 2^-53 < p for k = ceil(p * 2^53) - 1 only.
  EXPECT_EQ(Rng::bernoulli_threshold(0x1p-53), 1u);
  EXPECT_EQ(Rng::bernoulli_threshold(0x1p-53 + 0x1p-105), 2u);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), std::uint64_t{1} << 53);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntHitsAllValuesOfSmallRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformRealInHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(9);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.1);
}

TEST(Rng, ZipfCdfIsNormalizedAndMonotonic) {
  const auto cdf = Rng::make_zipf_cdf(100, 1.0);
  ASSERT_EQ(cdf.size(), 100u);
  EXPECT_NEAR(cdf.back(), 1.0, 1e-12);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GT(cdf[i], cdf[i - 1]);
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(29);
  const auto cdf = Rng::make_zipf_cdf(50, 1.2);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.zipf(cdf)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[40]);
}

TEST(Rng, ZipfZeroExponentIsUniform) {
  Rng rng(31);
  const auto cdf = Rng::make_zipf_cdf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.zipf(cdf)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), w.begin()));
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(41);
  Rng child = a.fork();
  // The child must differ from a fresh copy of the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child.next_u64() == a.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace vdist::util
