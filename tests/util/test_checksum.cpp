#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace socmix::util {
namespace {

std::vector<std::byte> as_bytes(std::string_view s) {
  std::vector<std::byte> out(s.size());
  // An empty vector's data() may be null, and memcpy to null is undefined
  // even for zero bytes.
  if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Crc32, KnownVectors) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(as_bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(as_bytes("a")), 0xe8b7be43u);
  EXPECT_EQ(crc32(as_bytes("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  const auto data = as_bytes("socmix snapshot payload, split across updates");
  const auto whole = crc32(data);

  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t state = kCrc32Init;
    state = crc32_update(state, std::span{data}.first(split));
    state = crc32_update(state, std::span{data}.subspan(split));
    EXPECT_EQ(crc32_final(state), whole) << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  auto data = as_bytes("smxg section bytes");
  const auto clean = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= std::byte{0x01};
    EXPECT_NE(crc32(data), clean) << "flip at byte " << i;
    data[i] ^= std::byte{0x01};
  }
}

/// The bytewise table-driven CRC the slice-by-8 implementation replaced,
/// kept here as the reference it must reproduce bit for bit.
std::uint32_t bytewise_crc32(std::span<const std::byte> data) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  std::uint32_t state = 0xffffffffu;
  for (const std::byte b : data) {
    state = table[(state ^ static_cast<std::uint32_t>(b)) & 0xffu] ^ (state >> 8);
  }
  return state ^ 0xffffffffu;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.below(256));
  return out;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryShortLengthAndAlignment) {
  // Lengths 0..64 from every start offset within an 8-byte word, so each
  // split between the 8-byte steps and the bytewise tail is covered.
  const auto buffer = random_bytes(64 + 8, 5);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::byte> piece{buffer.data() + start, len};
      ASSERT_EQ(crc32(piece), bytewise_crc32(piece))
          << "start " << start << " len " << len;
    }
  }
}

TEST(Crc32, MatchesBytewiseReferenceOnAMegabyte) {
  const auto buffer = random_bytes(std::size_t{1} << 20, 11);
  EXPECT_EQ(crc32(buffer), bytewise_crc32(buffer));
  // Unaligned start and an odd length through the streaming form.
  const std::span<const std::byte> odd{buffer.data() + 3, buffer.size() - 10};
  std::uint32_t state = kCrc32Init;
  state = crc32_update(state, odd.first(12345));
  state = crc32_update(state, odd.subspan(12345));
  EXPECT_EQ(crc32_final(state), bytewise_crc32(odd));
}

}  // namespace
}  // namespace socmix::util
