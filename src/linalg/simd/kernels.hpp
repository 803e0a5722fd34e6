// SIMD kernel tier with runtime dispatch — the compute layer under the
// hot sweeps.
//
// The batched 32-lane SpMM + fused TVD (markov::BatchedEvolver), the
// single-vector gather-stream SpMV (linalg::{Walk,WeightedWalk}Operator,
// one-lane markov::BatchedEvolver) and their frontier range variants all
// funnel through one table of kernel function pointers. Three tiers
// implement the table:
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
// "Kernel tiers & precision"): every tier performs the identical
// floating-point operation sequence per lane — per-row accumulation in
// CSR edge order, multiply-then-add affine combines (the kernel TUs are
// compiled with -ffp-contract=off and the vector code never uses FMA),
// and TVD terms reduced in ascending-row order. Tier choice therefore
// never changes a single output bit; tests/linalg/test_simd_parity.cpp
// enforces scalar↔avx2↔avx512 bitwise equality on all Table-1 configs.
//
// Mixed precision (Precision::kMixed, --precision mixed): lane state is
// stored and gathered as float32 — halving the memory traffic of a
// bandwidth-bound sweep — while every per-row arithmetic step runs in
// float64 (widen on load, round once on store) and the TVD reduction
// uses float64 Neumaier-compensated summation, so the only error source
// is state quantization. |TVD_mixed - TVD_f64| stays under
// kMixedTvdBudget on every measured workload; the ε-crossing decision is
// guarded by that budget (markov.sampled.mixed_eps_guard counts
// decisions landing inside the band). Mixed results are also
// bit-identical across tiers — the contract above applies per precision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "graph/frontier.hpp"
#include "graph/types.hpp"

namespace socmix::linalg::simd {

/// Widest lane block any SpMM kernel supports (accumulators stay in
/// registers / on the stack). Mirrored by markov::BatchedEvolver::kMaxBlock.
inline constexpr std::size_t kMaxLanes = 32;

/// Documented accuracy budget of mixed precision: on every measured
/// workload (all 15 Table-1 stand-ins, 500-step walks) the per-step
/// |TVD_mixed - TVD_f64| stays well under this bound — the f32 state
/// quantization is the only error source, the Neumaier reduction
/// contributes < 1 ulp. Enforced by test_simd_parity's accuracy tests.
inline constexpr double kMixedTvdBudget = 5e-5;

enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

enum class Precision : std::uint8_t {
  kFloat64 = 0,  ///< exact-parity default: f64 state, bit-identical to seed
  kMixed = 1,    ///< f32 state, f64 arithmetic + compensated TVD
};

/// Batched multi-lane SpMM sweep (optionally fused with the TVD-to-pi
/// reduction). For each row j — all of [0, n) when `ranges` is null,
/// otherwise the rows inside `ranges` with the skipped rows' pi-gap terms
/// interleaved in ascending-row order exactly as the dense sweep would
/// produce them (see graph::FrontierSet):
///   acc[b]  = sum_{e in row j} scaled[neighbors[e]*stride + b]
///   next_jb = walk_weight*acc[b] + laziness*cur[j*stride + b]
///   tvd[b] += |next_jb - pi[j]|            (f64: plain; mixed: Neumaier)
struct SpmmArgs {
  graph::NodeId n = 0;
  const graph::EdgeIndex* offsets = nullptr;
  const graph::NodeId* neighbors = nullptr;
  std::size_t stride = 0;  ///< lane stride of the block buffers
  std::size_t lanes = 0;   ///< active lanes, <= min(stride, kMaxLanes)
  double walk_weight = 0.0;
  double laziness = 0.0;
  const double* pi = nullptr;  ///< null: skip the fused TVD
  double* tvd_out = nullptr;   ///< [lanes], written when pi != null
  const graph::RowRange* ranges = nullptr;  ///< null: dense sweep of [0, n)
  std::size_t num_ranges = 0;
};

using SpmmF64Fn = void (*)(const SpmmArgs& args, const double* scaled,
                           const double* cur, double* next);
using SpmmMixedFn = void (*)(const SpmmArgs& args, const float* scaled,
                             const float* cur, float* next);

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

/// Elementwise prescale out[i] = x[i] * w[i] over [begin, end). The mixed
/// variant widens the f32 state, multiplies in f64 and rounds once, so
/// every tier produces identical bits.
using PrescaleF64Fn = void (*)(const double* x, const double* w, double* out,
                               std::size_t begin, std::size_t end);
using PrescaleMixedFn = void (*)(const float* x, const double* w, float* out,
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
  SpmmMixedFn spmm_mixed = nullptr;
  SpmvFn spmv = nullptr;
  PrescaleF64Fn prescale_f64 = nullptr;
  PrescaleMixedFn prescale_mixed = nullptr;
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

[[nodiscard]] const char* precision_name(Precision precision) noexcept;
[[nodiscard]] std::optional<Precision> parse_precision(std::string_view name) noexcept;

/// Word the resilience layer folds into a checkpoint's context so that a
/// snapshot written under a different precision is classified stale (a
/// mixed-mode trajectory must never be replayed into an exact-parity run).
[[nodiscard]] std::uint64_t precision_context_word(Precision precision) noexcept;

/// Standalone TVD-to-pi reduction over a *stored* lane-major state block:
/// per lane b, 0.5 * sum_j |state[j*stride + b] - pi[j]| with j ascending
/// over [0, n) (f64: plain accumulation; mixed: widened f32 state,
/// Neumaier-compensated f64 sum). Bit-identical to the fused reduction
/// the spmm kernels compute on the same stored state — swept rows store
/// exactly the value the fused term subtracts pi from, and skipped
/// frontier rows hold +0.0 so |0 - pi_j| reproduces the pi-gap term bit
/// for bit. BatchedEvolver uses this after a multi-shard or single-vector
/// sweep with pi == null. One scalar implementation serves every tier: the
/// reduction is adds and fabs only, with nothing tier-specific to pin.
void tvd_f64(const double* state, std::size_t stride, std::size_t lanes,
             const double* pi, graph::NodeId n, double* tvd_out) noexcept;
void tvd_mixed(const float* state, std::size_t stride, std::size_t lanes,
               const double* pi, graph::NodeId n, double* tvd_out) noexcept;

}  // namespace socmix::linalg::simd
