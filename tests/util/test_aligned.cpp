#include "util/aligned.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

namespace socmix::util {
namespace {

constexpr std::size_t kHugeAlign = std::size_t{2} << 20;
/// Doubles in the smallest buffer that takes the huge-page path.
constexpr std::size_t kFloorDoubles = kHugeBufferBytes / sizeof(double);

std::uintptr_t address(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

/// v[i] == i for every i < n.
bool holds_iota(const aligned_vector<double>& v, std::size_t n) {
  if (v.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] != static_cast<double>(i)) return false;
  }
  return true;
}

TEST(AlignedAlloc, BelowTheFloorIsCacheLineAligned) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{1000}, kFloorDoubles - 1}) {
    const aligned_vector<double> v(n);
    EXPECT_EQ(address(v.data()) % kSimdAlign, 0u) << n;
  }
  const aligned_vector<std::byte> bytes(kHugeBufferBytes - 1);
  EXPECT_EQ(address(bytes.data()) % kSimdAlign, 0u);
}

TEST(AlignedAlloc, AtOrAboveTheFloorIsHugePageAligned) {
  for (const std::size_t n :
       {kFloorDoubles, kFloorDoubles + 1, kFloorDoubles + kFloorDoubles / 3}) {
    const aligned_vector<double> v(n, 1.5);
    EXPECT_EQ(address(v.data()) % kHugeAlign, 0u) << n;
    EXPECT_EQ(v.front(), 1.5);
    EXPECT_EQ(v.back(), 1.5);
  }
  const aligned_vector<std::byte> bytes(kHugeBufferBytes);
  EXPECT_EQ(address(bytes.data()) % kHugeAlign, 0u);
}

TEST(AlignedAlloc, GrowAcrossTheFloorAndShrinkBackKeepContents) {
  const std::size_t small = 1000;
  aligned_vector<double> v(small);
  std::iota(v.begin(), v.end(), 0.0);

  // Grow: the small buffer is copied into a huge one and freed.
  v.resize(kFloorDoubles + 7);
  std::iota(v.begin() + small, v.end(), static_cast<double>(small));
  EXPECT_EQ(address(v.data()) % kHugeAlign, 0u);
  ASSERT_TRUE(holds_iota(v, kFloorDoubles + 7));

  // Shrink: the huge buffer is copied into a small one and freed.
  v.resize(small);
  v.shrink_to_fit();
  ASSERT_TRUE(holds_iota(v, small));
  EXPECT_LT(v.capacity() * sizeof(double), kHugeBufferBytes);

  // Swap buffers of both paths: each is later freed by its owner's
  // allocator with the size it was allocated with.
  aligned_vector<double> big(kFloorDoubles);
  std::iota(big.begin(), big.end(), 0.0);
  v.swap(big);
  EXPECT_TRUE(holds_iota(v, kFloorDoubles));
  EXPECT_TRUE(holds_iota(big, small));
  EXPECT_EQ(address(v.data()) % kHugeAlign, 0u);

  // Shrink a huge buffer to nothing.
  v.clear();
  v.shrink_to_fit();
  EXPECT_EQ(v.capacity(), 0u);
}

TEST(AlignedAlloc, ZeroSize) {
  aligned_vector<double> empty;
  EXPECT_TRUE(empty.empty());
  empty.shrink_to_fit();
  aligned_vector<double> sized(0);
  EXPECT_TRUE(sized.empty());
  empty.swap(sized);

  AlignedAlloc<double> alloc;
  double* p = alloc.allocate(0);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(address(p) % kSimdAlign, 0u);
  alloc.deallocate(p, 0);
}

}  // namespace
}  // namespace socmix::util
