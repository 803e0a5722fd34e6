// SIMD kernel tier with runtime dispatch — the compute layer under the
// hot sweeps.
//
// The batched 32-lane SpMM + fused TVD (markov::BatchedEvolver), the
// single-vector gather-stream SpMV (linalg::WalkOperator, one-lane
// markov::BatchedEvolver), the Krylov-basis kernels of Lanczos
// (linalg::detail::KrylovBasis: dot, axpy, divide, combine), the ADJC
// varint decoder, the CRC-32 that checks every `.smxg` section and the
// SybilLimit route hop (sybil::RouteTable::for_each_tail) all funnel
// through one table of kernel function pointers. Three tiers implement
// the table:
//
//   scalar   the portable fallback, compiled with the build's baseline
//            flags (CRC-32: util::crc32_update's slice-by-8);
//   avx2     256-bit vertical ops, a pshufb varint decode and a PCLMULQDQ
//            CRC-32 (route hops: scalar — AVX2 has no 64-bit multiply);
//   avx512   512-bit vertical ops, 8 route hops per vector with vpmullq
//            (AVX512DQ); the decoder and CRC-32 are the AVX2 tier's.
//
// The single-vector SpMV is one plain C++ kernel in every tier's table: it
// is bound by the latency of each row's add chain, which four rows in
// flight hide and vector width does not.
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
// TVD terms reduced in ascending-row order, and the basis dot product's
// eight accumulators each held in one vector lane. Tier choice therefore
// never changes a single output bit; tests/linalg/test_simd_parity.cpp
// enforces scalar↔avx2↔avx512 bitwise equality on all Table-1 configs
// and each kernel's contract on every tier, Lanczos.BitIdenticalAcrossTiers
// (tests/linalg/test_lanczos.cpp) the spectrum's, and
// tests/sybil/test_route_hops.cpp the integer-only route hops'.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "graph/types.hpp"

namespace socmix::linalg::simd {

/// Widest lane block any SpMM kernel supports (accumulators stay in
/// registers / on the stack). Mirrored by markov::BatchedEvolver::kMaxBlock.
inline constexpr std::size_t kMaxLanes = 32;

enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Batched multi-lane SpMM sweep over the contiguous rows [begin, end),
/// optionally fused with the TVD-to-pi reduction. The walk state is held
/// prescaled, s_t = x_t * inv_deg (one rounded product per cell), so the
/// edge loop is a single gather per edge. For each row j, ascending:
///   acc[b]  = sum_{e in row j} scaled[neighbors[e]*stride + b]
///   nx[b]   = walk_weight*acc[b]                            (cur null)
///   nx[b]   = walk_weight*acc[b] + laziness*cur[j*stride + b]  (cur set)
///   next[j*stride + b] = nx[b] * inv_deg[j]
///   tvd[b] += |nx[b] - pi[j]|
/// and, when `cur` is set, cur[j*stride + b] = nx[b]. `cur` holds the
/// unscaled x_t that only a lazy walk needs; a caller passes null exactly
/// when laziness is 0, where walk_weight*acc equals the lazy form's
/// walk_weight*acc + 0.0*x (every value is >= +0) — the same bits.
///
/// `tvd_out` is a running sum: each call reads it, continues it over its
/// rows in ascending order, and stores it back un-halved. A caller zeroes
/// it before the first range and halves it after the last, so any split of
/// [0, n) into ascending range calls sums the same terms in the same order
/// as one call over every row — the same bits.
///
/// `next` must not alias `scaled` (every gather reads the old state); the
/// evolver ping-pongs its two prescaled blocks. `cur` is updated in place:
/// row j reads only its own old value cur[j*stride + b] before it writes
/// nx. Every tier honors this.
struct SpmmArgs {
  graph::NodeId begin = 0;
  graph::NodeId end = 0;
  const graph::EdgeIndex* offsets = nullptr;
  const graph::NodeId* neighbors = nullptr;
  const double* inv_deg = nullptr;  ///< per-row 1/deg, prescales the written state
  std::size_t stride = 0;  ///< lane stride of the block buffers
  std::size_t lanes = 0;   ///< active lanes, <= min(stride, kMaxLanes)
  double walk_weight = 0.0;
  double laziness = 0.0;
  const double* pi = nullptr;  ///< null: skip the fused TVD; indexed by row
  double* tvd_out = nullptr;   ///< [lanes] running TVD sum, updated when pi != null
};

using SpmmF64Fn = void (*)(const SpmmArgs& args, const double* scaled, double* cur,
                           double* next);

/// Single-vector gather-stream SpMV over rows [row_begin, row_end):
///   acc  = sum_{e in row i} gather[neighbors[e]]   (in CSR edge order)
///   y[i] = walk_weight*acc * (row_scale ? row_scale[i] : 1) + laziness*x[i]
/// matching the scalar epilogues of WalkOperator (row_scale =
/// inv_sqrt_deg) and a one-lane BatchedEvolver (row_scale null). `y` may
/// alias `x` (row i reads only x[i], before it writes y[i]) but never
/// `gather`.
struct SpmvArgs {
  const graph::EdgeIndex* offsets = nullptr;
  const graph::NodeId* neighbors = nullptr;
  const double* gather = nullptr;  ///< gathered source (prescaled x, or raw x)
  const double* x = nullptr;       ///< epilogue input
  double* y = nullptr;
  double walk_weight = 0.0;
  double laziness = 0.0;
  const double* row_scale = nullptr;  ///< per-row factor, or null
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

/// One hop level of SybilLimit's hop-major random-route walk
/// (sybil::RouteTable::for_each_tail): route i (protocol instance i,
/// 0 <= i < count) crossed half-edge edge[i] = (u -> head) into head at
/// local index rev[edge[i]]; it leaves head by local edge
/// sigma_{head,i}(rev[edge[i]]), the keyed permutation of
/// util/feistel.hpp under key util::route_permutation_key(seed, i, head).
/// Each call sets from[i] = head and edge[i] = offsets[head] + that index.
/// Integer-only, so every tier produces identical words. Every head must
/// have degree >= 1 (a symmetric CSR guarantees it for any half-edge).
struct RouteHopArgs {
  const graph::EdgeIndex* offsets = nullptr;
  const graph::NodeId* neighbors = nullptr;
  const graph::NodeId* rev = nullptr;  ///< per half-edge: its local index at its head
  std::uint64_t seed = 0;              ///< protocol seed keying the permutations
  std::uint32_t count = 0;             ///< routes (instances 0..count-1)
  graph::NodeId* from = nullptr;       ///< [count] out: the head each route crossed into
  graph::EdgeIndex* edge = nullptr;    ///< [count] in: half-edge crossed; out: the next
  std::uint64_t* scratch = nullptr;    ///< [route_hop_scratch_words(count)] working space
};

/// Scratch words a RouteHopArgs of `count` routes needs: four per-route
/// arrays, each padded by one 8-lane vector.
[[nodiscard]] constexpr std::size_t route_hop_scratch_words(std::size_t count) noexcept {
  return 4 * (count + 8);
}

using RouteHopsFn = void (*)(const RouteHopArgs& args);

/// Continues a CRC-32 (IEEE 802.3, reflected) over `data`: the same
/// contract and the same value as util::crc32_update, which is the scalar
/// tier's entry (start from util::kCrc32Init, finish with
/// util::crc32_final). The vector tiers fold 64 bytes per step with
/// carry-less multiplies and reduce by Barrett; inputs shorter than 64
/// bytes, and the last bytes past a whole 16, take the scalar path.
using Crc32UpdateFn = std::uint32_t (*)(std::uint32_t state,
                                        std::span<const std::byte> data) noexcept;

/// Dot product of a[0, len) and b[0, len) with eight accumulators:
/// s[u] sums a[r] * b[r] over the r = u (mod 8) of the whole groups of
/// eight, in ascending r; the tail past the last whole group is added into
/// s[0]; the result is ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)).
/// Every product is rounded before its add, so each tier holds one
/// accumulator per vector lane and returns the same bits.
using DotF64Fn = double (*)(const double* a, const double* b, std::size_t len);

/// y[r] += alpha * x[r] for r < len (the product rounded, then the sum).
using AxpyF64Fn = void (*)(double alpha, const double* x, double* y, std::size_t len);

/// y[r] = x[r] / d for r < len; y may alias x.
using DivideF64Fn = void (*)(const double* x, double d, double* y, std::size_t len);

/// Most outputs one CombineArgs may carry: a combine holds every output of
/// a row tile before it writes any of them.
inline constexpr std::size_t kMaxCombineOutputs = 16;

/// Linear combinations of basis columns. Column i (i < used) holds its
/// rows at columns + i * stride; output c (c < outputs) is
///   out[c][r] = sum_{i < used} coeffs[c * used + i] * column_i[r],
/// summed from +0.0 in ascending i, each product rounded before its add.
/// An output may be one of the columns (an in-place rotation): a row of
/// every output is written only after that row of every column was read.
struct CombineArgs {
  const double* columns = nullptr;
  std::size_t stride = 0;       ///< doubles between consecutive columns
  std::size_t used = 0;         ///< columns combined
  const double* coeffs = nullptr;  ///< [outputs * used], by output
  double* const* out = nullptr;    ///< [outputs] output vectors
  std::size_t outputs = 0;         ///< <= kMaxCombineOutputs
};

/// Writes rows [begin, end) of every output of `args`.
using CombineF64Fn = void (*)(const CombineArgs& args, std::size_t begin, std::size_t end);

struct KernelTable {
  Tier tier = Tier::kScalar;
  SpmmF64Fn spmm_f64 = nullptr;
  SpmvFn spmv = nullptr;
  PrescaleF64Fn prescale_f64 = nullptr;
  DecodeU32Fn decode_u32 = nullptr;
  Crc32UpdateFn crc32_update = nullptr;
  RouteHopsFn route_hops = nullptr;
  DotF64Fn dot_f64 = nullptr;
  AxpyF64Fn axpy_f64 = nullptr;
  DivideF64Fn divide_f64 = nullptr;
  CombineF64Fn combine_f64 = nullptr;
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

}  // namespace socmix::linalg::simd
