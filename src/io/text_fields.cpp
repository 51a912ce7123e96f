#include "io/text_fields.h"

#include <charconv>
#include <ostream>

#include "util/float_cmp.h"

namespace vdist::io {

void write_double(std::ostream& os, double v) {
  if (util::is_unbounded(v)) {
    os << "inf";
    return;
  }
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  os.write(buf, end - buf);
}

std::optional<std::int32_t> parse_id(std::string_view token) noexcept {
  if (token.empty() || token.front() < '0' || token.front() > '9')
    return std::nullopt;
  std::int32_t id = 0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, id);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return id;
}

}  // namespace vdist::io
