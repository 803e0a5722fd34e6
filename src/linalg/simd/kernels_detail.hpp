// Internal per-tier kernel entry points behind the dispatch table.
//
// Each tier lives in its own translation unit so it can carry its own
// target flags (see src/linalg/CMakeLists.txt): the scalar TU uses the
// build's baseline flags, the avx2/avx512 TUs add -mavx2 -mpclmul /
// -mavx512f.
// All three are compiled with -ffp-contract=off — the rounding-point
// contract in kernels.hpp forbids fused multiply-adds in any tier.
// dispatch.cpp is the only consumer.
#pragma once

#include "linalg/simd/kernels.hpp"

namespace socmix::linalg::simd::scalar {
void spmm_f64(const SpmmArgs& args, const double* scaled, double* cur, double* next);
void spmv(const SpmvArgs& args, graph::NodeId row_begin, graph::NodeId row_end);
void prescale_f64(const double* x, const double* w, double* out, std::size_t begin,
                  std::size_t end);
std::size_t decode_u32(const std::uint8_t* ctrl, const std::uint8_t* data,
                       std::size_t count, std::uint32_t* out);
void route_hops(const RouteHopArgs& args);
double dot_f64(const double* a, const double* b, std::size_t len);
void axpy_f64(double alpha, const double* x, double* y, std::size_t len);
void divide_f64(const double* x, double d, double* y, std::size_t len);
void combine_f64(const CombineArgs& args, std::size_t begin, std::size_t end);
}  // namespace socmix::linalg::simd::scalar

#if defined(SOCMIX_SIMD_HAVE_AVX2)
namespace socmix::linalg::simd::avx2 {
void spmm_f64(const SpmmArgs& args, const double* scaled, double* cur, double* next);
void prescale_f64(const double* x, const double* w, double* out, std::size_t begin,
                  std::size_t end);
std::size_t decode_u32(const std::uint8_t* ctrl, const std::uint8_t* data,
                       std::size_t count, std::uint32_t* out);
std::uint32_t crc32_update(std::uint32_t state, std::span<const std::byte> data) noexcept;
double dot_f64(const double* a, const double* b, std::size_t len);
void axpy_f64(double alpha, const double* x, double* y, std::size_t len);
void divide_f64(const double* x, double d, double* y, std::size_t len);
void combine_f64(const CombineArgs& args, std::size_t begin, std::size_t end);
}  // namespace socmix::linalg::simd::avx2
#endif

#if defined(SOCMIX_SIMD_HAVE_AVX512)
namespace socmix::linalg::simd::avx512 {
void spmm_f64(const SpmmArgs& args, const double* scaled, double* cur, double* next);
void prescale_f64(const double* x, const double* w, double* out, std::size_t begin,
                  std::size_t end);
void route_hops(const RouteHopArgs& args);
double dot_f64(const double* a, const double* b, std::size_t len);
void axpy_f64(double alpha, const double* x, double* y, std::size_t len);
void divide_f64(const double* x, double d, double* y, std::size_t len);
void combine_f64(const CombineArgs& args, std::size_t begin, std::size_t end);
}  // namespace socmix::linalg::simd::avx512
#endif
