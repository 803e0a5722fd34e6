#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

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
  auto data = as_bytes("checkpoint frame bytes");
  const auto clean = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= std::byte{0x01};
    EXPECT_NE(crc32(data), clean) << "flip at byte " << i;
    data[i] ^= std::byte{0x01};
  }
}

}  // namespace
}  // namespace socmix::util
