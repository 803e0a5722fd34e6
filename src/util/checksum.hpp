// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for integrity
// checking of on-disk artifacts (the header and sections of `.smxg` packs).
//
// Not cryptographic — it detects the corruption that actually happens to
// files (truncation, torn writes, bit rot), which is all a loader needs
// before it decides to trust a pack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace socmix::util {

/// One-shot CRC-32 of a byte buffer.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data) noexcept;

/// Streaming form: feed chunks through `crc32_update` starting from
/// `kCrc32Init` and finish with `crc32_final`.
inline constexpr std::uint32_t kCrc32Init = 0xffffffffu;
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state,
                                         std::span<const std::byte> data) noexcept;
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xffffffffu;
}

}  // namespace socmix::util
