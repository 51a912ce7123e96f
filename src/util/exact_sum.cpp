#include "util/exact_sum.h"

#include <limits>

namespace vdist::util {

void ExactSum::carry(Chunks& c) noexcept {
  std::int64_t up = 0;  // kept in a register, not chained through memory
  for (std::size_t i = 0; i + 1 < kChunks; ++i) {
    const std::int64_t v = c[i] + up;
    up = v >> kChunkBits;  // floor: keeps the sign
    c[i] = v & 0xffffffff;
  }
  c[kChunks - 1] += up;
}

double ExactSum::value() const noexcept {
  Chunks c = chunk_;
  carry(c);
  const bool negative = c[kChunks - 1] < 0;
  if (negative) {
    for (std::int64_t& x : c) x = -x;
    carry(c);
  }
  // Now the magnitude M = sum_i c[i] 2^(32 i), every chunk nonnegative.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Bit 2098 weighs 2^1024: anything at or above it overflows.
  constexpr unsigned kOverflowBit = 2098 - kChunkBits * (kChunks - 1);
  if (c[kChunks - 1] >= (std::int64_t{1} << kOverflowBit))
    return negative ? -kInf : kInf;
  std::size_t h = kChunks;
  while (h > 0 && c[h - 1] == 0) --h;
  if (h == 0) return 0.0;  // exact zero reads +0
  const auto top = static_cast<std::uint64_t>(c[h - 1]);
  const std::size_t msb =
      kChunkBits * (h - 1) + static_cast<std::size_t>(std::bit_width(top)) - 1;
  // Keep the top 53 bits: bits [shift, shift + 53) of M. Below 2^53 the
  // integer is exact and its bit pattern is the double's (subnormals and
  // the smallest binade alike).
  const std::size_t shift = msb > 52 ? msb - 52 : 0;
  const auto word = [&c](std::size_t k) -> std::uint64_t {  // bits [k, k+64)
    const std::size_t i = k / kChunkBits;
    const unsigned o = k % kChunkBits;
    std::uint64_t x = static_cast<std::uint64_t>(c[i]) >> o;
    if (i + 1 < kChunks)
      x |= static_cast<std::uint64_t>(c[i + 1]) << (kChunkBits - o);
    if (o != 0 && i + 2 < kChunks)
      x |= static_cast<std::uint64_t>(c[i + 2]) << (2 * kChunkBits - o);
    return x;
  };
  std::uint64_t mant = word(shift) & ((std::uint64_t{1} << 53) - 1);
  if (shift > 0) {
    const std::size_t r = shift - 1;  // the round bit
    const std::size_t ri = r / kChunkBits;
    const unsigned ro = r % kChunkBits;
    const auto chunk_r = static_cast<std::uint64_t>(c[ri]);
    const bool round = ((chunk_r >> ro) & 1) != 0;
    bool sticky = (chunk_r & ((std::uint64_t{1} << ro) - 1)) != 0;
    for (std::size_t j = ri; j > 0 && !sticky; --j) sticky = c[j - 1] != 0;
    if (round && (sticky || (mant & 1) != 0)) ++mant;
  }
  // mant carries the hidden bit, so adding it to (shift << 52) yields
  // biased exponent shift + 1; a rounding carry to 2^53 bumps the
  // exponent by itself.
  const std::uint64_t bits = (static_cast<std::uint64_t>(shift) << 52) + mant;
  const double out =
      bits >= 0x7ff0000000000000ULL ? kInf : std::bit_cast<double>(bits);
  return negative ? -out : out;
}

}  // namespace vdist::util
