#include "sybil/permutation.hpp"

#include <stdexcept>

#include "util/feistel.hpp"

namespace socmix::sybil {

KeyedPermutation::KeyedPermutation(std::uint64_t key, std::uint64_t size)
    : key_(key), size_(size) {
  if (size == 0) throw std::invalid_argument{"KeyedPermutation: size must be >= 1"};
}

std::uint64_t KeyedPermutation::apply(std::uint64_t x) const noexcept {
  return util::feistel_permute(key_, size_, x);
}

std::uint64_t KeyedPermutation::invert(std::uint64_t y) const noexcept {
  return util::feistel_unpermute(key_, size_, y);
}

}  // namespace socmix::sybil
