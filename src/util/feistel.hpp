// Keyed Feistel permutation over small integer domains — the one
// definition behind SybilLimit's per-(node, instance) edge permutations
// (sybil::KeyedPermutation, sybil::RouteTable) and the route-hop kernels
// of every SIMD tier (linalg/simd route_hops).
//
// A 4-round balanced Feistel network over 2*half_bits bits, keyed by a
// 64-bit key, is a bijection of [0, 2^(2*half_bits)); cycle-walking (apply
// again until the image falls inside [0, size)) restricts it to a
// bijection of [0, size). half_bits is the smallest width whose domain
// covers size, so the domain is < 4 * size and the expected number of
// passes is < 4 (about 2-3 on real degree mixes).
//
// The key derivation, round and forward/inverse pass are templates over
// the lane type U (see util::mix64_lanes): std::uint64_t for one
// evaluation, or a GCC vector of u64 lanes in the vector kernels. The math
// is integer-only, so a vector lane computes exactly the scalar bits.
#pragma once

#include <bit>
#include <cstdint>

#include "util/rng.hpp"

namespace socmix::util {

inline constexpr int kFeistelRounds = 4;

/// Key of the edge permutation sigma_{node, instance} of SybilLimit's
/// random routes under protocol seed `seed`.
template <typename U>
[[nodiscard]] constexpr U route_permutation_key(U seed, U instance, U node) noexcept {
  return hash_combine_lanes(seed, (instance << 32) | node);
}

/// Feistel half-block width for a domain of `size` >= 1 elements: half of
/// bit_width(size - 1), rounded up, with at least 2 bits in total.
[[nodiscard]] constexpr std::uint64_t feistel_half_bits(std::uint64_t size) noexcept {
  const int bits = size <= 2 ? 2 : std::bit_width(size - 1);
  return static_cast<std::uint64_t>((bits + 1) / 2);
}

/// Round function: mix the half-block with the key and round index.
template <typename U>
[[nodiscard]] constexpr U feistel_round(U key, int round, U half) noexcept {
  return mix64_lanes(key ^ (static_cast<std::uint64_t>(round) << 56) ^ half);
}

/// One forward pass of the network over x < 2^(2*half_bits);
/// half_mask = 2^half_bits - 1.
template <typename U>
[[nodiscard]] constexpr U feistel_forward(U key, U x, U half_bits, U half_mask) noexcept {
  U left = x >> half_bits;
  U right = x & half_mask;
  for (int round = 0; round < kFeistelRounds; ++round) {
    const U next = left ^ (feistel_round(key, round, right) & half_mask);
    left = right;
    right = next;
  }
  return (left << half_bits) | right;
}

/// Inverse of feistel_forward.
template <typename U>
[[nodiscard]] constexpr U feistel_inverse(U key, U y, U half_bits, U half_mask) noexcept {
  U left = y >> half_bits;
  U right = y & half_mask;
  for (int round = kFeistelRounds - 1; round >= 0; --round) {
    const U prev = right ^ (feistel_round(key, round, left) & half_mask);
    right = left;
    left = prev;
  }
  return (left << half_bits) | right;
}

/// The keyed permutation of [0, size) at x < size (cycle-walking the
/// forward network); size >= 1.
[[nodiscard]] constexpr std::uint64_t feistel_permute(std::uint64_t key,
                                                      std::uint64_t size,
                                                      std::uint64_t x) noexcept {
  const std::uint64_t half_bits = feistel_half_bits(size);
  const std::uint64_t half_mask = (std::uint64_t{1} << half_bits) - 1;
  std::uint64_t y = x;
  do {
    y = feistel_forward(key, y, half_bits, half_mask);
  } while (y >= size);
  return y;
}

/// Inverse of feistel_permute at y < size.
[[nodiscard]] constexpr std::uint64_t feistel_unpermute(std::uint64_t key,
                                                        std::uint64_t size,
                                                        std::uint64_t y) noexcept {
  const std::uint64_t half_bits = feistel_half_bits(size);
  const std::uint64_t half_mask = (std::uint64_t{1} << half_bits) - 1;
  std::uint64_t x = y;
  do {
    x = feistel_inverse(key, x, half_bits, half_mask);
  } while (x >= size);
  return x;
}

}  // namespace socmix::util
