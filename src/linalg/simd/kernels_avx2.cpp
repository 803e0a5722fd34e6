// AVX2 kernel tier: 256-bit vertical ops (4 doubles) + i32 gathers.
// Compiled with -mavx2 -ffp-contract=off (see src/linalg/CMakeLists.txt);
// only reached when dispatch.cpp probed AVX2 support at runtime. All
// shared logic lives in kernels_body.inc — this TU only binds the vector
// primitives.

#include <immintrin.h>

#include <cstddef>

#include "linalg/simd/kernels_detail.hpp"
#include "util/prefetch.hpp"

#if !defined(SOCMIX_SIMD_HAVE_AVX2)
#error "kernels_avx2.cpp requires SOCMIX_SIMD_HAVE_AVX2 (see src/linalg/CMakeLists.txt)"
#endif

namespace socmix::linalg::simd::avx2 {

namespace {

using vd = __m256d;
constexpr std::size_t kW = 4;

inline vd vd_zero() noexcept { return _mm256_setzero_pd(); }
inline vd vd_loadu(const double* p) noexcept { return _mm256_loadu_pd(p); }
inline void vd_storeu(double* p, vd v) noexcept { _mm256_storeu_pd(p, v); }
inline vd vd_set1(double x) noexcept { return _mm256_set1_pd(x); }
inline vd vd_add(vd a, vd b) noexcept { return _mm256_add_pd(a, b); }
inline vd vd_sub(vd a, vd b) noexcept { return _mm256_sub_pd(a, b); }
inline vd vd_mul(vd a, vd b) noexcept { return _mm256_mul_pd(a, b); }
inline vd vd_abs(vd v) noexcept {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}
// i32 gather: sign-extends the u32 node ids, so it requires
// num_nodes < 2^31 (see kernels.hpp). The masked form with an all-ones
// mask is the same instruction but gives the source operand a defined
// value (the unmasked intrinsic's _mm256_undefined_pd trips
// -Wmaybe-uninitialized under -Werror).
inline vd vd_gather_i32(const double* base, const graph::NodeId* idx) noexcept {
  const vd ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base,
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)), ones, 8);
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

}  // namespace socmix::linalg::simd::avx2
