// Deterministic, seedable pseudo-random number generation.
//
// All randomized algorithms in socmix (graph generators, walk sampling,
// SybilLimit route instances) take an explicit Rng or a 64-bit seed so that
// every experiment in the paper reproduction is replayable bit-for-bit.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 as its authors recommend. It is not cryptographic; it is fast,
// has 256 bits of state, and passes BigCrush — exactly what a measurement
// harness needs.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace socmix::util {

/// Stateless mix of a 64-bit value (the splitmix64 step from state x),
/// lane-wise over U: std::uint64_t, or a GCC vector of u64 lanes (the SIMD
/// route-hop kernels, linalg/simd), whose +, ^, * and >> act per lane with
/// a scalar operand broadcast. Integer-only, so every lane yields the bits
/// the scalar form does.
template <typename U>
[[nodiscard]] constexpr U mix64_lanes(U x) noexcept {
  U z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64 step; also useful as a cheap 64-bit mixing function.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  const std::uint64_t x = state;
  state += 0x9e3779b97f4a7c15ULL;
  return mix64_lanes(x);
}

/// Stateless mix of a 64-bit value (finalizer of splitmix64).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  return mix64_lanes(x);
}

/// hash_combine lane-wise over U (see mix64_lanes).
template <typename U>
[[nodiscard]] constexpr U hash_combine_lanes(U a, U b) noexcept {
  return mix64_lanes(a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2) + mix64_lanes(b)));
}

/// Combine two 64-bit values into one well-mixed value (for keyed hashing).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return hash_combine_lanes(a, b);
}

/// xoshiro256** — the project-wide PRNG. Satisfies
/// std::uniform_random_bit_generator so it plugs into <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words through splitmix64; any seed (incl. 0) is fine.
  explicit constexpr Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Lemire's multiply-shift rejection method: unbiased, one division at most.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Derive an independent child generator (for per-task determinism).
  [[nodiscard]] Rng fork() noexcept { return Rng{(*this)()}; }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Fisher–Yates shuffle of a random-access range.
template <typename RandomIt>
void shuffle(RandomIt first, RandomIt last, Rng& rng) {
  const auto n = static_cast<std::uint64_t>(last - first);
  for (std::uint64_t i = n; i > 1; --i) {
    const auto j = rng.below(i);
    using std::swap;
    swap(first[i - 1], first[j]);
  }
}

}  // namespace socmix::util
