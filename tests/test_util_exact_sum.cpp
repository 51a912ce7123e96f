#include "util/exact_sum.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace vdist::util {
namespace {

double sum_of(const std::vector<double>& terms) {
  ExactSum s;
  for (const double x : terms) s.add(x);
  return s.value();
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Terms m * 2^(e - 52) with a random 53-bit m and e in [-64, 0]: every
// one is an integer multiple of 2^-116 below 2^117 in that unit, so an
// __int128 holds their exact sum and its conversion to double (correctly
// rounded) is an independent reference.
std::vector<double> window_terms(Rng& rng, std::size_t n) {
  std::vector<double> terms;
  for (std::size_t i = 0; i < n; ++i) {
    const auto m = static_cast<double>(rng.next_u64() >> 11);
    const int e = static_cast<int>(rng.uniform_int(-64, 0));
    const double x = std::ldexp(m, e - 52);
    terms.push_back(rng.bernoulli(0.5) ? -x : x);
  }
  return terms;
}

double int128_reference(const std::vector<double>& terms) {
  __int128 acc = 0;
  for (const double x : terms) {
    const double scaled = std::ldexp(std::fabs(x), 116);  // exact integer
    const auto mag = static_cast<__int128>(scaled);
    acc += x < 0.0 ? -mag : mag;
  }
  return std::ldexp(static_cast<double>(acc), -116);
}

TEST(ExactSum, EmptyAndZeroTermsReadPositiveZero) {
  EXPECT_EQ(bits(ExactSum{}.value()), bits(0.0));
  EXPECT_EQ(bits(sum_of({-0.0, 0.0, -0.0})), bits(0.0));
}

TEST(ExactSum, AgreesWithAnInt128FixedPointReference) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto terms = window_terms(rng, 1 + static_cast<std::size_t>(trial));
    EXPECT_EQ(bits(sum_of(terms)), bits(int128_reference(terms)))
        << "trial " << trial;
  }
}

TEST(ExactSum, HeavyCancellationAgreesWithTheReference) {
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    auto terms = window_terms(rng, 50);
    // Near-cancelling partners leave only low-order residue behind.
    const std::size_t n = terms.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double tweak = std::ldexp(1.0, -static_cast<int>(
                                               rng.uniform_int(60, 64)));
      terms.push_back(-(terms[i] + (rng.bernoulli(0.5) ? tweak : -tweak)));
    }
    EXPECT_EQ(bits(sum_of(terms)), bits(int128_reference(terms)))
        << "trial " << trial;
  }
}

TEST(ExactSum, TwoTermsMatchIeeeAdditionAcrossTheWholeRange) {
  // A single IEEE addition is correctly rounded too. Random finite bit
  // patterns cover subnormals, huge magnitudes and overflow to inf.
  Rng rng(29);
  const auto draw = [&rng]() {
    for (;;) {
      const double x = std::bit_cast<double>(rng.next_u64());
      if (std::isfinite(x) && x != 0.0) return x;
    }
  };
  for (int trial = 0; trial < 20000; ++trial) {
    const double a = draw();
    // Half the pairs share an exponent band so they actually interact.
    const double b = trial % 2 == 0 ? draw() : a * rng.uniform(-2.0, 2.0);
    if (b == 0.0 || !std::isfinite(b)) continue;
    EXPECT_EQ(bits(sum_of({a, b})), bits(a + b)) << a << " + " << b;
  }
}

TEST(ExactSum, OrderOfTermsDoesNotMoveABit) {
  Rng rng(31);
  std::vector<double> terms;
  for (int i = 0; i < 500; ++i) {
    const auto e = static_cast<int>(rng.uniform_int(-80, 80));
    terms.push_back(rng.uniform(-1.0, 1.0) * std::ldexp(1.0, e));
  }
  const std::uint64_t want = bits(sum_of(terms));
  for (int round = 0; round < 20; ++round) {
    rng.shuffle(terms);
    ASSERT_EQ(bits(sum_of(terms)), want) << "shuffle " << round;
  }
}

TEST(ExactSum, AddingThenSubtractingEveryTermReturnsPositiveZero) {
  Rng rng(37);
  std::vector<double> terms;
  for (int i = 0; i < 300; ++i) {
    const auto e = static_cast<int>(rng.uniform_int(-1000, 1000));
    terms.push_back(rng.normal() * std::ldexp(1.0, e));
  }
  terms.push_back(DBL_MAX);
  terms.push_back(std::numeric_limits<double>::denorm_min());
  ExactSum s;
  for (const double x : terms) s.add(x);
  rng.shuffle(terms);
  for (const double x : terms) s.sub(x);
  EXPECT_EQ(bits(s.value()), bits(0.0));
  // Removing all but one term leaves exactly that term.
  ExactSum t;
  for (const double x : terms) t.add(x);
  for (std::size_t i = 1; i < terms.size(); ++i) t.sub(terms[i]);
  EXPECT_EQ(bits(t.value()), bits(terms[0]));
}

TEST(ExactSum, CancellationKeepsTheSmallTerm) {
  EXPECT_EQ(sum_of({1e16, 1.0, -1e16}), 1.0);
  EXPECT_EQ(sum_of({1e308, 1e-308, -1e308}), 1e-308);
  // The doubles 0.1 + 0.2 - 0.3 sum to exactly 2^-55; the left-to-right
  // double fold reads 2^-54.
  EXPECT_EQ(sum_of({0.1, 0.2, -0.3}), 0x1p-55);
  EXPECT_EQ(sum_of({-0.3, 0.2, 0.1}), 0x1p-55);
}

TEST(ExactSum, TiesRoundToEven) {
  // 1 + 2^-53 is halfway between 1 and its successor: even side is 1.
  EXPECT_EQ(bits(sum_of({1.0, 0x1p-53})), bits(1.0));
  // (1 + 2^-52) + 2^-53 is halfway again: the even side is 1 + 2^-51.
  EXPECT_EQ(bits(sum_of({1.0 + 0x1p-52, 0x1p-53})), bits(1.0 + 0x1p-51));
  // A sticky bit far below breaks the tie upward.
  EXPECT_EQ(bits(sum_of({1.0, 0x1p-53, 0x1p-300})), bits(1.0 + 0x1p-52));
  EXPECT_EQ(bits(sum_of({1.0, 0x1p-53, -0x1p-300})), bits(1.0));
  EXPECT_EQ(bits(sum_of({-1.0, -0x1p-53})), bits(-1.0));
  EXPECT_EQ(bits(sum_of({-1.0, -0x1p-53, -0x1p-300})), bits(-1.0 - 0x1p-52));
}

TEST(ExactSum, SubnormalsAreExact) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(bits(sum_of({tiny, tiny, tiny})), bits(3 * tiny));
  // The smallest normal minus the smallest subnormal: the largest
  // subnormal, exactly.
  EXPECT_EQ(bits(sum_of({DBL_MIN, -tiny})),
            bits(std::nextafter(DBL_MIN, 0.0)));
  EXPECT_EQ(bits(sum_of({tiny, -tiny, tiny})), bits(tiny));
  EXPECT_EQ(bits(sum_of({-tiny})), bits(-tiny));
  // Subnormal crumbs under a large term only ever act as sticky bits.
  EXPECT_EQ(bits(sum_of({1.0, tiny})), bits(1.0));
}

TEST(ExactSum, NearTheTopOfTheRange) {
  const double inf = std::numeric_limits<double>::infinity();
  // No intermediate overflow: the exact sum is DBL_MAX again.
  EXPECT_EQ(bits(sum_of({DBL_MAX, DBL_MAX, -DBL_MAX})), bits(DBL_MAX));
  EXPECT_EQ(bits(sum_of({DBL_MAX, DBL_MAX})), bits(inf));
  EXPECT_EQ(bits(sum_of({-DBL_MAX, -DBL_MAX})), bits(-inf));
  // DBL_MAX + half an ulp is a tie; DBL_MAX's significand is odd, so
  // it rounds up and overflows — as IEEE addition does.
  EXPECT_EQ(bits(sum_of({DBL_MAX, 0x1p970})), bits(inf));
  EXPECT_EQ(bits(sum_of({DBL_MAX, 0x1p970, -0x1p-1074})), bits(DBL_MAX));
  EXPECT_EQ(bits(sum_of({DBL_MAX, 0x1p969})), bits(DBL_MAX));
  // The full range in one sum: the tiny term survives the cancellation.
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(bits(sum_of({DBL_MAX, tiny, -DBL_MAX})), bits(tiny));
}

}  // namespace
}  // namespace vdist::util
