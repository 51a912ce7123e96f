// Field codecs shared by the text formats (instance_io, event_io): one
// number writer and one id parser, so every file spells numbers and
// checks ids the same way.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string_view>

namespace vdist::io {

// Writes v as printf's "%.17g" — 17 significant digits round-trip every
// double exactly — and +infinity (model::kUnbounded) as "inf".
void write_double(std::ostream& os, double v);

// A non-negative decimal id that fits std::int32_t: digits only, with no
// sign, no surrounding space and no trailing characters; nullopt
// otherwise.
[[nodiscard]] std::optional<std::int32_t> parse_id(
    std::string_view token) noexcept;

}  // namespace vdist::io
