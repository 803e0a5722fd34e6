// AVX-512 kernel tier: 512-bit vertical ops (8 doubles) and the route
// hop over 8 routes per vector. Compiled with -mavx2
// -mavx512f -mavx512dq -ffp-contract=off (see src/linalg/CMakeLists.txt);
// only reached when dispatch.cpp probed AVX-512 support at runtime. The
// sweep kernels' shared logic lives in kernels_body.inc — this TU binds
// their vector primitives.

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdlib>
#include <cstdint>

#include "linalg/simd/kernels_detail.hpp"
#include "util/feistel.hpp"
#include "util/prefetch.hpp"

#if !defined(SOCMIX_SIMD_HAVE_AVX512)
#error "kernels_avx512.cpp requires SOCMIX_SIMD_HAVE_AVX512 (see src/linalg/CMakeLists.txt)"
#endif

namespace socmix::linalg::simd::avx512 {

namespace {

using vd = __m512d;
constexpr std::size_t kW = 8;
// No gather prefetch: on the 500K LiveJournal A stand-in (perfbench
// lj500k-pack) the sampled sweep ran 3-5% faster without it.
constexpr std::size_t kPrefetch = 0;
// Two vectors of rows per combine tile: 8 outputs take 16 of the 32 zmm
// registers.
constexpr std::size_t kCombineVectors = 2;

inline vd vd_zero() noexcept { return _mm512_setzero_pd(); }
inline vd vd_loadu(const double* p) noexcept { return _mm512_loadu_pd(p); }
inline void vd_storeu(double* p, vd v) noexcept { _mm512_storeu_pd(p, v); }
inline vd vd_set1(double x) noexcept { return _mm512_set1_pd(x); }
inline vd vd_add(vd a, vd b) noexcept { return _mm512_add_pd(a, b); }
inline vd vd_sub(vd a, vd b) noexcept { return _mm512_sub_pd(a, b); }
inline vd vd_mul(vd a, vd b) noexcept { return _mm512_mul_pd(a, b); }
inline vd vd_div(vd a, vd b) noexcept { return _mm512_div_pd(a, b); }
inline vd vd_abs(vd v) noexcept {
  return _mm512_castsi512_pd(_mm512_and_epi64(
      _mm512_castpd_si512(v), _mm512_set1_epi64(INT64_C(0x7fffffffffffffff))));
}
}  // namespace

#include "linalg/simd/kernels_body.inc"

namespace {

constexpr __mmask8 kAll = 0xFF;

// Eight u64 lanes as a GCC vector: +, ^, *, << and >> act per lane (the
// multiply is vpmullq), so util/feistel.hpp's templates run on it as
// written.
using u64x8 = std::uint64_t __attribute__((vector_size(64)));

constexpr u64x8 kIota = {0, 1, 2, 3, 4, 5, 6, 7};
constexpr u64x8 kOnes = {1, 1, 1, 1, 1, 1, 1, 1};

inline u64x8 lanes(__m512i v) noexcept { return std::bit_cast<u64x8>(v); }
inline __m512i m512(u64x8 v) noexcept { return std::bit_cast<__m512i>(v); }

/// The first `count` lanes of a group of eight.
inline __mmask8 head_mask(std::uint32_t count) noexcept {
  return count >= 8 ? kAll : static_cast<__mmask8>((1u << count) - 1u);
}

/// The per-route inputs of the cycle walk, one scratch array each, in
/// route order; `next` is the first route no lane has taken yet. `value`
/// holds a route's entry index until a lane takes it, then its permuted
/// index once the walk ends.
struct Pending {
  const std::uint64_t* key;
  const std::uint64_t* half_bits;
  const std::uint64_t* size;
  std::uint64_t* value;
  std::uint32_t next;
  std::uint32_t count;
};

/// Lane sets the cycle walk interleaves. On a Zen 4 host three measured
/// fastest: 4.7 ns per route hop, against 5.9 with two and 4.9 with four.
constexpr std::size_t kLaneSets = 3;

/// Eight routes in flight through the cycle walk.
struct LaneSet {
  u64x8 x{};  ///< current Feistel value
  u64x8 key{};
  u64x8 half_bits{};
  u64x8 size{};
  u64x8 route{};
  __mmask8 active = 0;
};

/// The lowest `k` set bits of `m` (k below popcount(m)) — a short loop
/// instead of BMI2 pdep, which the tier's flags do not include.
inline __mmask8 lowest_set_bits(unsigned m, unsigned k) noexcept {
  unsigned out = 0;
  for (; k > 0; --k) {
    const unsigned low = m & (0u - m);
    out |= low;
    m ^= low;
  }
  return static_cast<__mmask8>(out);
}

/// Hands the lanes of `freed` the next pending routes in route order;
/// lanes left without one go idle. The inputs are loaded into registers
/// and then expanded (the memory form of vpexpandq is microcoded on
/// Zen 4); the loads may read up to 8 words past `count`, inside the
/// scratch padding.
inline void refill(LaneSet& set, __mmask8 freed, Pending& pending) noexcept {
  const unsigned left = pending.count - pending.next;
  unsigned take = static_cast<unsigned>(__builtin_popcount(freed));
  __mmask8 fill = freed;
  if (take > left) {
    fill = lowest_set_bits(freed, left);
    take = left;
  }
  set.active = static_cast<__mmask8>((set.active & ~freed) | fill);
  if (fill == 0) return;
  const std::uint32_t at = pending.next;
  const auto expand = [fill, at](u64x8 into, const std::uint64_t* from) {
    return lanes(
        _mm512_mask_expand_epi64(m512(into), fill, _mm512_loadu_si512(from + at)));
  };
  set.x = expand(set.x, pending.value);
  set.key = expand(set.key, pending.key);
  set.half_bits = expand(set.half_bits, pending.half_bits);
  set.size = expand(set.size, pending.size);
  set.route = lanes(_mm512_mask_expand_epi64(m512(set.route), fill, m512(kIota + at)));
  pending.next += take;
}

/// One forward Feistel pass over a lane set's values.
inline u64x8 feistel_pass(const LaneSet& set) noexcept {
  const u64x8 half_mask = (kOnes << set.half_bits) - 1;
  return util::feistel_forward(set.key, set.x, set.half_bits, half_mask);
}

/// Lanes whose image `y` fell inside their domain store it at their route
/// and take the next pending route.
inline void retire(LaneSet& set, u64x8 y, Pending& pending) noexcept {
  const __mmask8 done = _mm512_mask_cmplt_epu64_mask(set.active, m512(y), m512(set.size));
  set.x = y;
  if (done == 0) return;
  _mm512_mask_i64scatter_epi64(pending.value, done, m512(set.route), m512(y), 8);
  refill(set, done, pending);
}

}  // namespace

void route_hops(const RouteHopArgs& a) {
  const std::uint32_t count = a.count;
  const std::size_t padded = count + std::size_t{8};
  std::uint64_t* key = a.scratch;
  std::uint64_t* half_bits = key + padded;
  std::uint64_t* size = half_bits + padded;
  std::uint64_t* value = size + padded;
  const u64x8 seed = u64x8{} + a.seed;

  // 1. Dense pass, eight routes at a time: the crossed half-edge's head,
  // its entry index and row bounds, the permutation key and the Feistel
  // half-width. bit_width(t) - 1 is the exact binary exponent of t as a
  // double (t < 2^53), so no AVX512CD lzcnt is needed; max(deg - 1, 2)
  // folds feistel_half_bits' two-bit floor into the same formula.
  for (std::uint32_t i = 0; i < count; i += 8) {
    const __mmask8 m = head_mask(count - i);
    const __m512i e = _mm512_maskz_loadu_epi64(m, a.edge + i);
    const __m256i head32 =
        _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), m, e, a.neighbors, 4);
    const __m256i rev32 =
        _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), m, e, a.rev, 4);
    // The maskz forms below, with an all-ones mask, are the plain
    // instructions with a defined merge source (the unmasked intrinsics'
    // _mm512_undefined_* trip GCC 12's -Wmaybe-uninitialized).
    const __m512i head = _mm512_maskz_cvtepu32_epi64(kAll, head32);
    const __m512i base =
        _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), m, head, a.offsets, 8);
    const __m512i end =
        _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), m, head, a.offsets + 1, 8);
    const u64x8 deg = lanes(end) - lanes(base);
    const __m512d t = _mm512_cvtepu64_pd(
        _mm512_maskz_max_epu64(kAll, m512(deg - 1), _mm512_set1_epi64(2)));
    const u64x8 width_minus_one =
        lanes(_mm512_cvttpd_epu64(_mm512_maskz_getexp_pd(kAll, t)));
    const u64x8 key_i = util::route_permutation_key(seed, kIota + i, lanes(head));
    _mm512_mask_storeu_epi64(key + i, m, m512(key_i));
    _mm512_mask_storeu_epi64(half_bits + i, m, m512((width_minus_one + 2) >> 1));
    _mm512_mask_storeu_epi64(size + i, m, m512(deg));
    _mm512_mask_storeu_epi64(value + i, m, _mm512_maskz_cvtepu32_epi64(kAll, rev32));
    _mm512_mask_cvtepi64_storeu_epi32(a.from + i, m, head);
    _mm512_mask_storeu_epi64(a.edge + i, m, base);
  }

  // 2. Cycle walk with lane refill: a lane whose route is done takes the
  // next pending route at once, so no lane idles behind a group's slowest
  // route (a Feistel domain is up to 4x its degree). Independent lane sets
  // keep several dependent multiply chains in flight.
  Pending pending{key, half_bits, size, value, 0, count};
  LaneSet sets[kLaneSets];
  for (LaneSet& set : sets) refill(set, kAll, pending);
  for (;;) {
    unsigned any = 0;
    for (LaneSet& set : sets) any |= set.active;
    if (any == 0) break;
    // Every set's pass first, then the data-dependent retire branches, so
    // a mispredicted retire never stalls another set's multiply chain.
    u64x8 y[kLaneSets];
    for (std::size_t k = 0; k < kLaneSets; ++k) y[k] = feistel_pass(sets[k]);
    for (std::size_t k = 0; k < kLaneSets; ++k) retire(sets[k], y[k], pending);
  }

  // 3. The next half-edge: row base (parked in edge by the dense pass)
  // plus the permuted index.
  for (std::uint32_t i = 0; i < count; i += 8) {
    const __mmask8 m = head_mask(count - i);
    const __m512i next = _mm512_add_epi64(_mm512_maskz_loadu_epi64(m, a.edge + i),
                                          _mm512_maskz_loadu_epi64(m, value + i));
    _mm512_mask_storeu_epi64(a.edge + i, m, next);
  }
}

}  // namespace socmix::linalg::simd::avx512
