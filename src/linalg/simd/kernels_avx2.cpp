// AVX2 kernel tier: 256-bit vertical ops (4 doubles) and the pshufb
// varint decode. Compiled with -mavx2 -ffp-contract=off (see src/linalg/CMakeLists.txt);
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

}  // namespace socmix::linalg::simd::avx2
