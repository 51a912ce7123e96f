// Exact summation of doubles: a fixed-size superaccumulator.
//
// ExactSum holds the exact sum of every term added (and subtracted) so
// far as one fixed-point integer spanning the whole finite double range,
// in 32-bit chunks with 64-bit storage so carries can wait (Neal, "Fast
// exact summation using small and large superaccumulators",
// arXiv:1505.05571, the "small" variant). add() and sub() are O(1) and
// never allocate; value() rounds the exact sum once, to nearest with
// ties to even. The result is therefore the correctly rounded sum of the
// terms: it does not depend on their order, on how many cancel, or on
// which terms were added and later subtracted again — a sum whose terms
// all cancel reads exactly +0.
//
// Terms must be finite (asserted in debug builds). A sum past the
// double range reads as ±infinity.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace vdist::util {

class ExactSum {
 public:
  void add(double x) noexcept { accumulate(x, false); }
  void sub(double x) noexcept { accumulate(x, true); }

  // The exact sum rounded to the nearest double (ties to even). O(chunks).
  [[nodiscard]] double value() const noexcept;

 private:
  // Bit k of the fixed-point integer weighs 2^(k - 1074): bit 0 is the
  // smallest subnormal, and a term's 53-bit significand lands at bit
  // (biased exponent - 1) or below. 66 chunks reach bit 2111, past
  // DBL_MAX's top bit (2097), so the top chunk also absorbs overflow.
  static constexpr unsigned kChunkBits = 32;
  static constexpr std::size_t kChunks = 66;
  using Chunks = std::array<std::int64_t, kChunks>;
  // Each term moves a chunk by less than 2^32, so carrying every 2^30
  // terms keeps every chunk far from int64 overflow.
  static constexpr std::uint32_t kCarryEvery = 1u << 30;

  // Propagates carries upward: every chunk but the top ends in
  // [0, 2^32); the top chunk keeps the sign.
  static void carry(Chunks& c) noexcept;

  void accumulate(double x, bool negate) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const auto biased = static_cast<unsigned>((bits >> 52) & 0x7ff);
    assert(biased != 0x7ff && "ExactSum terms must be finite");
    std::uint64_t mant = bits & ((std::uint64_t{1} << 52) - 1);
    if (biased != 0) mant |= std::uint64_t{1} << 52;
    if (mant == 0) return;  // ±0
    const unsigned pos = biased == 0 ? 0 : biased - 1;
    const std::size_t at = pos / kChunkBits;
    const unsigned shift = pos % kChunkBits;
    // The significand shifted into place spans at most three chunks.
    const auto lo = static_cast<std::int64_t>((mant << shift) & 0xffffffffu);
    const std::uint64_t hi = mant >> (kChunkBits - shift);
    const auto mid = static_cast<std::int64_t>(hi & 0xffffffffu);
    const auto top = static_cast<std::int64_t>(hi >> kChunkBits);
    if (((bits >> 63) != 0) != negate) {
      chunk_[at] -= lo;
      chunk_[at + 1] -= mid;
      chunk_[at + 2] -= top;
    } else {
      chunk_[at] += lo;
      chunk_[at + 1] += mid;
      chunk_[at + 2] += top;
    }
    if (++pending_ == kCarryEvery) {
      carry(chunk_);
      pending_ = 0;
    }
  }

  Chunks chunk_{};
  std::uint32_t pending_ = 0;  // terms since the last carry
};

}  // namespace vdist::util
