#include "util/checksum.hpp"

#include <array>

namespace socmix::util {

namespace {

/// Slice-by-8 tables for the reflected IEEE polynomial: kTables[0] is the
/// classic bytewise table, and kTables[k][b] is the CRC of byte b followed
/// by k zero bytes, so eight table lookups fold one 8-byte word.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables = make_tables();

[[nodiscard]] std::uint32_t byte_step(std::uint32_t state, std::byte b) noexcept {
  return kTables[0][(state ^ static_cast<std::uint32_t>(b)) & 0xffu] ^ (state >> 8);
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::span<const std::byte> data) noexcept {
  const std::byte* p = data.data();
  std::size_t left = data.size();
  // Eight bytes per step, assembled little-endian so the fold is the same
  // on any host; the bytewise loop handles the tail.
  for (; left >= 8; p += 8, left -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    for (int i = 0; i < 4; ++i) {
      lo |= static_cast<std::uint32_t>(p[i]) << (8 * i);
      hi |= static_cast<std::uint32_t>(p[4 + i]) << (8 * i);
    }
    lo ^= state;
    state = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
            kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
            kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; left > 0; ++p, --left) state = byte_step(state, *p);
  return state;
}

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  return crc32_final(crc32_update(kCrc32Init, data));
}

}  // namespace socmix::util
