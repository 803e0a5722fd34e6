// Small string helpers shared by the I/O, CSV, and CLI layers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace socmix::util {

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on a single delimiter character; keeps empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char delim);

/// Split on any run of ASCII whitespace; drops empty fields.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// True if s starts with the given prefix.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Parse a signed 64-bit integer; nullopt on any trailing garbage / overflow.
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s) noexcept;

/// Parse a double; nullopt on any trailing garbage.
[[nodiscard]] std::optional<double> parse_f64(std::string_view s) noexcept;

/// Format n with thousands separators, e.g. 1234567 -> "1,234,567".
[[nodiscard]] std::string with_commas(std::int64_t n);

/// Lower-case an ASCII string.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Filesystem-safe slug: lower-cased, runs of non-alphanumerics collapsed
/// to single '-', trimmed of leading/trailing '-'; "snapshot" when nothing
/// survives. Used for file and record names derived from dataset names.
[[nodiscard]] std::string slugify(std::string_view s);

}  // namespace socmix::util
