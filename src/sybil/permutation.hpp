// Keyed pseudo-random permutations over small integer domains.
//
// SybilLimit's random routes require, for every (node, instance) pair, a
// random permutation of the node's incident edges. Storing them costs
// O(r * 2m) = O(m^1.5) memory at r = Theta(sqrt(m)); instead we evaluate a
// 4-round Feistel network keyed by (node, instance) with cycle-walking to
// restrict an arbitrary power-of-two Feistel domain to [0, n). This is the
// standard format-preserving-encryption construction: exact permutation,
// O(1) memory, O(1) expected evaluation time. The network itself lives in
// util/feistel.hpp, shared with the SIMD route-hop kernels.
#pragma once

#include <cstdint>

namespace socmix::sybil {

/// Bijective map over [0, size). Deterministic in (key, size).
class KeyedPermutation {
 public:
  /// size must be >= 1.
  KeyedPermutation(std::uint64_t key, std::uint64_t size);

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Forward permutation; x must be < size().
  [[nodiscard]] std::uint64_t apply(std::uint64_t x) const noexcept;

  /// Inverse permutation; y must be < size().
  [[nodiscard]] std::uint64_t invert(std::uint64_t y) const noexcept;

 private:
  std::uint64_t key_;
  std::uint64_t size_;
};

}  // namespace socmix::sybil
