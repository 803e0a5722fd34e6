// AVX-512 kernel tier: 512-bit vertical ops (8 doubles) + i32 gathers.
// Compiled with -mavx2 -mavx512f -mavx512dq -ffp-contract=off (see
// src/linalg/CMakeLists.txt); only reached when dispatch.cpp probed
// AVX-512 support at runtime. All shared logic lives in kernels_body.inc
// — this TU only binds the vector primitives.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "linalg/simd/kernels_detail.hpp"
#include "util/prefetch.hpp"

#if !defined(SOCMIX_SIMD_HAVE_AVX512)
#error "kernels_avx512.cpp requires SOCMIX_SIMD_HAVE_AVX512 (see src/linalg/CMakeLists.txt)"
#endif

namespace socmix::linalg::simd::avx512 {

namespace {

using vd = __m512d;
constexpr std::size_t kW = 8;

inline vd vd_zero() noexcept { return _mm512_setzero_pd(); }
inline vd vd_loadu(const double* p) noexcept { return _mm512_loadu_pd(p); }
inline void vd_storeu(double* p, vd v) noexcept { _mm512_storeu_pd(p, v); }
inline vd vd_set1(double x) noexcept { return _mm512_set1_pd(x); }
inline vd vd_add(vd a, vd b) noexcept { return _mm512_add_pd(a, b); }
inline vd vd_sub(vd a, vd b) noexcept { return _mm512_sub_pd(a, b); }
inline vd vd_mul(vd a, vd b) noexcept { return _mm512_mul_pd(a, b); }
inline vd vd_abs(vd v) noexcept {
  return _mm512_castsi512_pd(_mm512_and_epi64(
      _mm512_castpd_si512(v), _mm512_set1_epi64(INT64_C(0x7fffffffffffffff))));
}
// i32 gather: sign-extends the u32 node ids, so it requires
// num_nodes < 2^31 (see kernels.hpp). As in the AVX2 tier, the masked
// form with an all-ones mask is the same instruction with a defined
// source operand (the unmasked intrinsic's _mm512_undefined_pd trips
// GCC 12's -Wmaybe-uninitialized under -Werror).
inline vd vd_gather_i32(const double* base, const graph::NodeId* idx) noexcept {
  return _mm512_mask_i32gather_pd(
      _mm512_setzero_pd(), __mmask8{0xFF},
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), base, 8);
}

}  // namespace

#include "linalg/simd/kernels_body.inc"

}  // namespace socmix::linalg::simd::avx512
