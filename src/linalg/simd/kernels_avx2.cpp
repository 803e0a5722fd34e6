// AVX2 kernel tier: 256-bit vertical ops (4 doubles), the pshufb varint
// decode and the PCLMULQDQ CRC-32. Compiled with -mavx2 -mpclmul
// -ffp-contract=off (see src/linalg/CMakeLists.txt); only reached when
// dispatch.cpp probed AVX2 and PCLMULQDQ support at runtime. All shared
// floating-point logic lives in kernels_body.inc — this TU only binds the
// vector primitives.

#include <immintrin.h>

#include <cstddef>
#include <cstdlib>

#include "linalg/simd/kernels_detail.hpp"
#include "util/checksum.hpp"
#include "util/prefetch.hpp"

#if !defined(SOCMIX_SIMD_HAVE_AVX2)
#error "kernels_avx2.cpp requires SOCMIX_SIMD_HAVE_AVX2 (see src/linalg/CMakeLists.txt)"
#endif

namespace socmix::linalg::simd::avx2 {

namespace {

using vd = __m256d;
constexpr std::size_t kW = 4;
// The gather prefetch pays on this tier: a BA(200K) sweep at one thread
// ran 0.49 s with it and 0.71 s without (bench/micro_kernels --simd-only).
constexpr std::size_t kPrefetch = util::kGatherPrefetchDistance;
// One vector of rows per combine tile: 8 outputs take 8 of the 16 ymm
// registers.
constexpr std::size_t kCombineVectors = 1;

inline vd vd_zero() noexcept { return _mm256_setzero_pd(); }
inline vd vd_loadu(const double* p) noexcept { return _mm256_loadu_pd(p); }
inline void vd_storeu(double* p, vd v) noexcept { _mm256_storeu_pd(p, v); }
inline vd vd_set1(double x) noexcept { return _mm256_set1_pd(x); }
inline vd vd_add(vd a, vd b) noexcept { return _mm256_add_pd(a, b); }
inline vd vd_sub(vd a, vd b) noexcept { return _mm256_sub_pd(a, b); }
inline vd vd_mul(vd a, vd b) noexcept { return _mm256_mul_pd(a, b); }
inline vd vd_div(vd a, vd b) noexcept { return _mm256_div_pd(a, b); }
inline vd vd_abs(vd v) noexcept {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}
}  // namespace

#include "linalg/simd/kernels_body.inc"

namespace {

// Stream-vbyte decode tables: for each control byte, the pshufb mask that
// scatters its four variable-length little-endian values into four u32
// slots (0x80 lanes zero the unused high bytes) and the total data bytes
// the quad consumes.
struct VbyteTables {
  alignas(16) std::uint8_t shuffle[256][16];
  std::uint8_t length[256];
};

constexpr VbyteTables make_vbyte_tables() {
  VbyteTables t{};
  for (unsigned c = 0; c < 256; ++c) {
    unsigned src = 0;
    for (unsigned lane = 0; lane < 4; ++lane) {
      const unsigned len = ((c >> (2 * lane)) & 3u) + 1u;
      for (unsigned b = 0; b < 4; ++b) {
        t.shuffle[c][lane * 4 + b] =
            b < len ? static_cast<std::uint8_t>(src + b) : std::uint8_t{0x80};
      }
      src += len;
    }
    t.length[c] = static_cast<std::uint8_t>(src);
  }
  return t;
}

constexpr VbyteTables kVbyte = make_vbyte_tables();

}  // namespace

std::size_t decode_u32(const std::uint8_t* ctrl, const std::uint8_t* data,
                       std::size_t count, std::uint32_t* out) {
  std::size_t pos = 0;
  std::size_t i = 0;
  // One 16-byte load + pshufb per quad of values. The load may overrun the
  // final value's data bytes by up to 15 — covered by the caller's 16-byte
  // slack guarantee (kernels.hpp). Integer moves only, so the output words
  // match scalar::decode_u32 exactly.
  for (; i + 4 <= count; i += 4) {
    const unsigned c = ctrl[i >> 2];
    const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + pos));
    const __m128i shuf =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kVbyte.shuffle[c]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm_shuffle_epi8(raw, shuf));
    pos += kVbyte.length[c];
  }
  for (; i < count; ++i) {
    const unsigned len = ((ctrl[i >> 2] >> ((i & 3) * 2)) & 3u) + 1u;
    std::uint32_t v = 0;
    for (unsigned b = 0; b < len; ++b) {
      v |= std::uint32_t{data[pos + b]} << (8 * b);
    }
    out[i] = v;
    pos += len;
  }
  return pos;
}

namespace {

// CRC-32 by carry-less multiplication (V. Gopal, E. Ozturk et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009). The CRC is the remainder of the message polynomial mod
// P(x) = x^32 + 0x04C11DB7, in the bit-reflected order util::crc32 uses.
// A 128-bit lane A, followed by k more bits, contributes
//   A * x^k = A_hi * x^(k+64) + A_lo * x^k  (mod P),
// so multiplying each 64-bit half by a 33-bit constant x^(k+-32) mod P
// moves the lane k bits forward without changing the remainder. Four
// lanes advance 512 bits per step, then fold into one, then 128 -> 64 ->
// 32 bits, and Barrett reduction leaves the remainder. Every constant is
// derived below; reflected, a 33-bit constant ends up shifted left by one.

/// x^k mod P(x), as the 32 coefficients of x^0..x^31 (bit i = x^i).
constexpr std::uint64_t xpow_mod_p(unsigned k) noexcept {
  std::uint64_t r = 1;
  for (unsigned i = 0; i < k; ++i) {
    r <<= 1;
    if ((r >> 32) & 1u) r ^= 0x104C11DB7u;
  }
  return r;
}

/// The low `bits` bits of v in reverse order.
constexpr std::uint64_t reflect(std::uint64_t v, unsigned bits) noexcept {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < bits; ++i) r |= ((v >> i) & 1u) << (bits - 1 - i);
  return r;
}

/// The reflected multiplier that moves a 64-bit half k bits forward.
constexpr std::uint64_t fold_constant(unsigned k) noexcept {
  return reflect(xpow_mod_p(k), 32) << 1;
}

/// floor(x^64 / P(x)), the Barrett constant mu, reflected over 33 bits.
constexpr std::uint64_t barrett_mu() noexcept {
  std::uint64_t q = 0;
  // The remainder's coefficients x^(32+shift)..x^shift, from x^64 down.
  std::uint64_t rem_hi = std::uint64_t{1} << 32;
  for (int shift = 32; shift >= 0; --shift) {
    if ((rem_hi >> 32) & 1u) {
      q |= std::uint64_t{1} << shift;
      rem_hi ^= 0x104C11DB7u;
    }
    rem_hi <<= 1;
  }
  return reflect(q, 33);
}

constexpr std::uint64_t kFoldBy4Lo = fold_constant(4 * 128 + 32);
constexpr std::uint64_t kFoldBy4Hi = fold_constant(4 * 128 - 32);
constexpr std::uint64_t kFoldBy1Lo = fold_constant(128 + 32);
constexpr std::uint64_t kFoldBy1Hi = fold_constant(128 - 32);
constexpr std::uint64_t kFold64 = fold_constant(64);
constexpr std::uint64_t kPolyReflected = reflect(0x104C11DB7u, 33);
constexpr std::uint64_t kMu = barrett_mu();

/// Moves `lane` forward by the distance `k` encodes and adds `next`.
inline __m128i fold(__m128i lane, __m128i k, __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

inline __m128i load16(const std::byte* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::span<const std::byte> data) noexcept {
  if (data.size() < 64) return util::crc32_update(state, data);
  const std::byte* p = data.data();
  const std::size_t body = data.size() & ~std::size_t{15};  // whole 16-byte lanes

  // The running state xors into the first four message bytes (the low
  // dword of the first lane), as it does in the bytewise algorithm.
  __m128i a0 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i a1 = load16(p + 16);
  __m128i a2 = load16(p + 32);
  __m128i a3 = load16(p + 48);
  std::size_t pos = 64;
  const __m128i by4 = _mm_set_epi64x(static_cast<long long>(kFoldBy4Hi),
                                     static_cast<long long>(kFoldBy4Lo));
  for (; pos + 64 <= body; pos += 64) {
    a0 = fold(a0, by4, load16(p + pos));
    a1 = fold(a1, by4, load16(p + pos + 16));
    a2 = fold(a2, by4, load16(p + pos + 32));
    a3 = fold(a3, by4, load16(p + pos + 48));
  }
  const __m128i by1 = _mm_set_epi64x(static_cast<long long>(kFoldBy1Hi),
                                     static_cast<long long>(kFoldBy1Lo));
  __m128i acc = fold(fold(fold(a0, by1, a1), by1, a2), by1, a3);
  for (; pos < body; pos += 16) acc = fold(acc, by1, load16(p + pos));

  // 128 -> 64 bits: the low half moves 96 bits forward onto the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, by1, 0x10));
  // 64 -> 32 bits: the low dword moves 64 bits forward onto the rest.
  const __m128i by64 = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  acc = _mm_xor_si128(_mm_srli_si128(acc, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), by64, 0x00));
  // Barrett: q = floor(acc * mu / x^64), remainder = acc - q * P.
  const __m128i barrett = _mm_set_epi64x(static_cast<long long>(kMu),
                                         static_cast<long long>(kPolyReflected));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  const auto crc = static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, q), 1));
  return util::crc32_update(crc, data.subspan(body));
}

}  // namespace socmix::linalg::simd::avx2
