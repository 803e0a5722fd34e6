// SIMD kernel tier with runtime dispatch — the compute layer under the
// hot sweeps.
//
// The batched 32-lane SpMM + fused TVD (markov::BatchedEvolver), the
// single-vector gather-stream SpMV (linalg::{Walk,WeightedWalk}Operator,
// one-lane markov::BatchedEvolver) all funnel through one table of kernel
// function pointers. Three tiers implement the table:
//
//   scalar   the portable fallback — the exact pre-SIMD kernel code,
//            compiled with the build's baseline flags;
//   avx2     256-bit vertical ops + i32 gathers;
//   avx512   512-bit vertical ops + i32 gathers.
//
// The active tier is chosen once at first use: the widest tier that was
// compiled in AND that the running CPU reports support for (via
// __builtin_cpu_supports), overridable with SOCMIX_SIMD=scalar|avx2|avx512
// (or set_tier() from tests/benches). An unavailable override falls back
// to the best available tier with a warning, never to an illegal
// instruction.
//
// Determinism contract (the "rounding-point contract", see DESIGN.md
// "Kernel tiers"): every tier performs the identical
// floating-point operation sequence per lane — per-row accumulation in
// CSR edge order, multiply-then-add affine combines (the kernel TUs are
// compiled with -ffp-contract=off and the vector code never uses FMA),
// and TVD terms reduced in ascending-row order. Tier choice therefore
// never changes a single output bit; tests/linalg/test_simd_parity.cpp
// enforces scalar↔avx2↔avx512 bitwise equality on all Table-1 configs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "graph/types.hpp"

namespace socmix::linalg::simd {

/// Widest lane block any SpMM kernel supports (accumulators stay in
/// registers / on the stack). Mirrored by markov::BatchedEvolver::kMaxBlock.
inline constexpr std::size_t kMaxLanes = 32;

enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Batched multi-lane SpMM sweep over the contiguous rows [begin, end),
/// optionally fused with the TVD-to-pi reduction (callers fuse it only
/// when the range is every row). For each row j, ascending:
///   acc[b]  = sum_{e in row j} scaled[neighbors[e]*stride + b]
///   next_jb = walk_weight*acc[b] + laziness*cur[j*stride + b]
///   tvd[b] += |next_jb - pi[j]|
struct SpmmArgs {
  graph::NodeId begin = 0;
  graph::NodeId end = 0;
  const graph::EdgeIndex* offsets = nullptr;
  const graph::NodeId* neighbors = nullptr;
  std::size_t stride = 0;  ///< lane stride of the block buffers
  std::size_t lanes = 0;   ///< active lanes, <= min(stride, kMaxLanes)
  double walk_weight = 0.0;
  double laziness = 0.0;
  const double* pi = nullptr;  ///< null: skip the fused TVD
  double* tvd_out = nullptr;   ///< [lanes], written when pi != null
};

using SpmmF64Fn = void (*)(const SpmmArgs& args, const double* scaled,
                           const double* cur, double* next);

/// Single-vector gather-stream SpMV over rows [row_begin, row_end):
///   acc  = sum_{e in row i} (edge_scale ? edge_scale[e] : 1) * gather[neighbors[e]]
///   y[i] = walk_weight*acc * (row_scale ? row_scale[i] : 1) + laziness*x[i]
/// matching the scalar epilogues of WalkOperator (row_scale =
/// inv_sqrt_deg), a one-lane BatchedEvolver (row_scale null) and
/// WeightedWalkOperator (edge_scale = folded weights). The SIMD tiers use
/// i32 gathers, so they require num_nodes < 2^31 — guaranteed by the u32
/// NodeId CSR long before that bound matters.
struct SpmvArgs {
  const graph::EdgeIndex* offsets = nullptr;
  const graph::NodeId* neighbors = nullptr;
  const double* gather = nullptr;  ///< gathered source (prescaled x, or raw x)
  const double* x = nullptr;       ///< epilogue input
  double* y = nullptr;
  double walk_weight = 0.0;
  double laziness = 0.0;
  const double* row_scale = nullptr;   ///< per-row factor, or null
  const double* edge_scale = nullptr;  ///< per-edge factor, or null
};

using SpmvFn = void (*)(const SpmvArgs& args, graph::NodeId row_begin,
                        graph::NodeId row_end);

/// Elementwise prescale out[i] = x[i] * w[i] over [begin, end); one
/// rounded product per element, so every tier produces identical bits.
using PrescaleF64Fn = void (*)(const double* x, const double* w, double* out,
                               std::size_t begin, std::size_t end);

/// Stream-vbyte block decode of `count` u32 values: 2-bit length codes
/// packed four-per-control-byte in `ctrl` (ceil(count/4) bytes), 1..4
/// little-endian data bytes per value in `data`. Returns the data bytes
/// consumed. Pure integer reconstruction — every tier produces identical
/// words, so the decoded adjacency feeding the FP kernels is bit-exact by
/// construction. Vector tiers may load a full 16 bytes at any consumed
/// data position; callers guarantee 16 readable bytes past the last value
/// (the ADJC payload carries that slack — see graph/sharded/adjc.hpp).
using DecodeU32Fn = std::size_t (*)(const std::uint8_t* ctrl, const std::uint8_t* data,
                                    std::size_t count, std::uint32_t* out);

struct KernelTable {
  Tier tier = Tier::kScalar;
  SpmmF64Fn spmm_f64 = nullptr;
  SpmvFn spmv = nullptr;
  PrescaleF64Fn prescale_f64 = nullptr;
  DecodeU32Fn decode_u32 = nullptr;
};

/// The active kernel table (cpuid probe + SOCMIX_SIMD override, resolved
/// once, thread-safe). Hot paths cache the reference per call site.
[[nodiscard]] const KernelTable& dispatch() noexcept;

/// The tier dispatch() currently resolves to.
[[nodiscard]] Tier active_tier() noexcept;

/// True when `tier` was compiled in AND the running CPU supports it.
[[nodiscard]] bool tier_available(Tier tier) noexcept;

/// Forces the active tier (tests/benches). Returns false — leaving the
/// active tier unchanged — when the tier is unavailable on this machine.
/// Not safe concurrently with running kernels.
bool set_tier(Tier tier) noexcept;

/// Reverts set_tier() to the SOCMIX_SIMD / auto-probed choice.
void reset_tier() noexcept;

[[nodiscard]] const char* tier_name(Tier tier) noexcept;
[[nodiscard]] std::optional<Tier> parse_tier(std::string_view name) noexcept;

/// Standalone TVD-to-pi reduction over a *stored* lane-major state block:
/// per lane b, 0.5 * sum_j |state[j*stride + b] - pi[j]| with j ascending
/// over [0, n). Bit-identical to the fused reduction the spmm kernels
/// compute on the same stored state: every row stores exactly the value
/// the fused term subtracts pi from. BatchedEvolver uses this after a
/// multi-shard or single-vector sweep with pi == null. One scalar
/// implementation serves every tier: the reduction is adds and fabs only,
/// with nothing tier-specific to pin.
void tvd_f64(const double* state, std::size_t stride, std::size_t lanes,
             const double* pi, graph::NodeId n, double* tvd_out) noexcept;

}  // namespace socmix::linalg::simd
