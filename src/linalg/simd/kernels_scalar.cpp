// Scalar (portable) kernel tier.
//
// The f64 SpMM kernel runs the pre-SIMD BatchedEvolver row body over row
// ranges (a dense sweep is the one range [0, n)) — it defines the
// per-lane floating-point operation sequence every other tier must
// reproduce bit for bit, and compiling it with the build's baseline flags
// keeps the default build's output identical to the pre-dispatch code.
// The mixed-precision kernel below is the reference implementation of the
// f32-state / f64-arithmetic contract (see kernels.hpp): widen on load,
// round once on store, TVD terms from the *stored* f32 value,
// Neumaier-compensated f64 reduction.
//
// This TU is compiled with -ffp-contract=off (see src/linalg/CMakeLists)
// so a native build cannot contract the affine epilogues into FMAs —
// that pins the rounding points the vector tiers match.

#include <array>
#include <cmath>
#include <cstddef>
#include <span>

#include "linalg/simd/kernels_detail.hpp"
#include "util/prefetch.hpp"

namespace socmix::linalg::simd::scalar {

namespace {

constexpr std::size_t kPrefetchDistance = util::kGatherPrefetchDistance;

// Every sweep kernel is instantiated per lane count B. B > 0 is a
// compile-time count (stride stays runtime so a partially filled block
// still takes this path): the b-loops unroll and vectorize, and the
// accumulators live in registers. B == 0 is the runtime-width fallback
// for remainder blocks (active < block) and odd block sizes. The
// operation order is the same either way.
template <std::size_t B>
inline constexpr std::size_t kLaneCap = B != 0 ? B : kMaxLanes;

// Calls f.template operator()<B>() with B = a compile-time lane count, or
// B = 0 for any other width.
template <typename F>
void with_lanes(std::size_t lanes, F&& f) {
  switch (lanes) {
    case 4: f.template operator()<4>(); break;
    case 8: f.template operator()<8>(); break;
    case 16: f.template operator()<16>(); break;
    case 32: f.template operator()<32>(); break;
    default: f.template operator()<0>(); break;
  }
}

// The rows a sweep visits: the frontier's ranges, or the single range
// [0, n) of a dense sweep.
std::span<const graph::RowRange> sweep_ranges(const SpmmArgs& a,
                                              const graph::RowRange& full) {
  return a.ranges != nullptr ? std::span<const graph::RowRange>{a.ranges, a.num_ranges}
                             : std::span<const graph::RowRange>{&full, 1};
}

// f64 row sweep over `ranges`. The inner loop is a single gather + add
// per edge: the per-source scaling src[b] * inv_deg[i] was hoisted into
// the prescale pass (see BatchedEvolver::sweep), which computes the exact
// same rounded products, so the floating-point result per lane remains
// the operation sequence of the single-vector spmv epilogue +
// total_variation (CSR edge order, then ascending-row TVD) — bit-identical
// to a one-lane sweep. Rows outside the ranges hold exactly +0.0 in
// cur/next/scaled (frontier seed invariant + monotone closure), so a full
// sweep would have recomputed +0.0 for them and their TVD term
// fabs(0.0 - pi[j]) is pi[j] bit for bit — accumulated here in the same
// ascending-row order, interleaved with the swept rows, to keep the
// per-lane reduction sequence identical to a full sweep.
template <std::size_t B>
void sweep_f64(const SpmmArgs& a, std::span<const graph::RowRange> ranges,
               const double* scaled, const double* cur, double* next) {
  // Locals, not a.* reads: stores through next must not force reloads.
  const std::size_t lanes = B != 0 ? B : a.lanes;
  const std::size_t stride = a.stride;
  const graph::EdgeIndex* offsets = a.offsets;
  const graph::NodeId* neighbors = a.neighbors;
  const double walk_weight = a.walk_weight;
  const double laziness = a.laziness;
  const double* pi = a.pi;
  std::array<double, kLaneCap<B>> acc{};
  std::array<double, kLaneCap<B>> tvd_acc{};
  graph::NodeId done = 0;
  for (const graph::RowRange r : ranges) {
    if (pi != nullptr) {
      for (graph::NodeId j = done; j < r.begin; ++j) {
        const double p = pi[j];
        for (std::size_t b = 0; b < lanes; ++b) tvd_acc[b] += p;
      }
    }
    for (graph::NodeId j = r.begin; j < r.end; ++j) {
      for (std::size_t b = 0; b < lanes; ++b) acc[b] = 0.0;
      const graph::EdgeIndex row_end = offsets[j + 1];
      for (graph::EdgeIndex e = offsets[j]; e < row_end; ++e) {
        if (e + kPrefetchDistance < row_end) {
          util::prefetch_read(
              scaled + static_cast<std::size_t>(neighbors[e + kPrefetchDistance]) * stride);
        }
        const double* src = scaled + static_cast<std::size_t>(neighbors[e]) * stride;
        for (std::size_t b = 0; b < lanes; ++b) acc[b] += src[b];
      }
      const double* cur_j = cur + static_cast<std::size_t>(j) * stride;
      double* next_j = next + static_cast<std::size_t>(j) * stride;
      for (std::size_t b = 0; b < lanes; ++b) {
        next_j[b] = walk_weight * acc[b] + laziness * cur_j[b];
      }
      if (pi != nullptr) {
        const double p = pi[j];
        for (std::size_t b = 0; b < lanes; ++b) tvd_acc[b] += std::fabs(next_j[b] - p);
      }
    }
    done = r.end;
  }
  if (pi != nullptr) {
    for (graph::NodeId j = done; j < a.n; ++j) {
      const double p = pi[j];
      for (std::size_t b = 0; b < lanes; ++b) tvd_acc[b] += p;
    }
    for (std::size_t b = 0; b < lanes; ++b) a.tvd_out[b] = 0.5 * tvd_acc[b];
  }
}

// ---------------------------------------------------------------------------
// Mixed precision: f32 state, f64 arithmetic, compensated TVD.

// Neumaier-compensated add: exact for the lost low-order part of each
// term. The branch selects by magnitude only — both arms compute the same
// rounded value the branch-free vector form selects, so scalar and SIMD
// compensation histories are bit-identical.
inline void neumaier_add(double& sum, double& comp, double term) {
  const double t = sum + term;
  if (std::fabs(sum) >= std::fabs(term)) {
    comp += (sum - t) + term;
  } else {
    comp += (term - t) + sum;
  }
  sum = t;
}

// Mixed-precision row sweep over `ranges`. Per lane: accumulate the
// widened f32 gathers in f64, combine the affine epilogue in f64, round
// once to f32 on store, and take the TVD term from the *stored* value —
// so the only deviation from the f64 path is state quantization, never
// arithmetic. Skipped rows contribute pi[j] exactly (their stored state
// is +0.0f), interleaved in ascending-row order like the f64 sweep.
template <std::size_t B>
void sweep_mixed(const SpmmArgs& a, std::span<const graph::RowRange> ranges,
                 const float* scaled, const float* cur, float* next) {
  const std::size_t lanes = B != 0 ? B : a.lanes;
  const std::size_t stride = a.stride;
  const graph::EdgeIndex* offsets = a.offsets;
  const graph::NodeId* neighbors = a.neighbors;
  const double walk_weight = a.walk_weight;
  const double laziness = a.laziness;
  const double* pi = a.pi;
  std::array<double, kLaneCap<B>> acc{};
  std::array<double, kLaneCap<B>> sum{};
  std::array<double, kLaneCap<B>> comp{};
  graph::NodeId done = 0;
  for (const graph::RowRange r : ranges) {
    if (pi != nullptr) {
      for (graph::NodeId j = done; j < r.begin; ++j) {
        const double p = pi[j];
        for (std::size_t b = 0; b < lanes; ++b) neumaier_add(sum[b], comp[b], p);
      }
    }
    for (graph::NodeId j = r.begin; j < r.end; ++j) {
      for (std::size_t b = 0; b < lanes; ++b) acc[b] = 0.0;
      const graph::EdgeIndex row_end = offsets[j + 1];
      for (graph::EdgeIndex e = offsets[j]; e < row_end; ++e) {
        if (e + kPrefetchDistance < row_end) {
          util::prefetch_read(
              scaled + static_cast<std::size_t>(neighbors[e + kPrefetchDistance]) * stride);
        }
        const float* src = scaled + static_cast<std::size_t>(neighbors[e]) * stride;
        for (std::size_t b = 0; b < lanes; ++b) acc[b] += static_cast<double>(src[b]);
      }
      const float* cur_j = cur + static_cast<std::size_t>(j) * stride;
      float* next_j = next + static_cast<std::size_t>(j) * stride;
      if (pi != nullptr) {
        const double p = pi[j];
        for (std::size_t b = 0; b < lanes; ++b) {
          const double v =
              walk_weight * acc[b] + laziness * static_cast<double>(cur_j[b]);
          next_j[b] = static_cast<float>(v);
          neumaier_add(sum[b], comp[b],
                       std::fabs(static_cast<double>(next_j[b]) - p));
        }
      } else {
        for (std::size_t b = 0; b < lanes; ++b) {
          const double v =
              walk_weight * acc[b] + laziness * static_cast<double>(cur_j[b]);
          next_j[b] = static_cast<float>(v);
        }
      }
    }
    done = r.end;
  }
  if (pi != nullptr) {
    for (graph::NodeId j = done; j < a.n; ++j) {
      const double p = pi[j];
      for (std::size_t b = 0; b < lanes; ++b) neumaier_add(sum[b], comp[b], p);
    }
    for (std::size_t b = 0; b < lanes; ++b) a.tvd_out[b] = 0.5 * (sum[b] + comp[b]);
  }
}

}  // namespace

void spmm_f64(const SpmmArgs& a, const double* scaled, const double* cur, double* next) {
  const graph::RowRange full{0, a.n};
  const auto ranges = sweep_ranges(a, full);
  with_lanes(a.lanes, [&]<std::size_t B>() { sweep_f64<B>(a, ranges, scaled, cur, next); });
}

void spmm_mixed(const SpmmArgs& a, const float* scaled, const float* cur, float* next) {
  const graph::RowRange full{0, a.n};
  const auto ranges = sweep_ranges(a, full);
  with_lanes(a.lanes,
             [&]<std::size_t B>() { sweep_mixed<B>(a, ranges, scaled, cur, next); });
}

void spmv(const SpmvArgs& a, graph::NodeId row_begin, graph::NodeId row_end) {
  const double walk_weight = a.walk_weight;
  const double laziness = a.laziness;
  for (graph::NodeId i = row_begin; i < row_end; ++i) {
    double acc = 0.0;
    const graph::EdgeIndex end = a.offsets[i + 1];
    if (a.edge_scale != nullptr) {
      for (graph::EdgeIndex e = a.offsets[i]; e < end; ++e) {
        if (e + kPrefetchDistance < end) {
          util::prefetch_read(a.gather + a.neighbors[e + kPrefetchDistance]);
        }
        acc += a.edge_scale[e] * a.gather[a.neighbors[e]];
      }
    } else {
      for (graph::EdgeIndex e = a.offsets[i]; e < end; ++e) {
        if (e + kPrefetchDistance < end) {
          util::prefetch_read(a.gather + a.neighbors[e + kPrefetchDistance]);
        }
        acc += a.gather[a.neighbors[e]];
      }
    }
    const double base = walk_weight * acc;
    a.y[i] = (a.row_scale != nullptr ? base * a.row_scale[i] : base) + laziness * a.x[i];
  }
}

void prescale_f64(const double* x, const double* w, double* out, std::size_t begin,
                  std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) out[i] = x[i] * w[i];
}

void prescale_mixed(const float* x, const double* w, float* out, std::size_t begin,
                    std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    out[i] = static_cast<float>(static_cast<double>(x[i]) * w[i]);
  }
}

std::size_t decode_u32(const std::uint8_t* ctrl, const std::uint8_t* data,
                       std::size_t count, std::uint32_t* out) {
  // Portable stream-vbyte decode: the reference the vector tiers must
  // reproduce word for word (pure integer assembly, no rounding anywhere).
  std::size_t pos = 0;
  for (std::size_t i = 0; i < count; ++i) {
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

}  // namespace socmix::linalg::simd::scalar

// ---------------------------------------------------------------------------
// Tier-independent standalone TVD reduction (see kernels.hpp). Lives in
// this TU for its -ffp-contract=off pinning; adds and fabs only, so there
// is exactly one implementation for every tier.

namespace socmix::linalg::simd {

void tvd_f64(const double* state, std::size_t stride, std::size_t lanes,
             const double* pi, graph::NodeId n, double* tvd_out) noexcept {
  std::array<double, kMaxLanes> acc{};
  for (graph::NodeId j = 0; j < n; ++j) {
    const double p = pi[j];
    const double* row = state + static_cast<std::size_t>(j) * stride;
    for (std::size_t b = 0; b < lanes; ++b) acc[b] += std::fabs(row[b] - p);
  }
  for (std::size_t b = 0; b < lanes; ++b) tvd_out[b] = 0.5 * acc[b];
}

void tvd_mixed(const float* state, std::size_t stride, std::size_t lanes,
               const double* pi, graph::NodeId n, double* tvd_out) noexcept {
  // Same magnitude-branch compensation as the fused mixed kernels.
  const auto compensated_add = [](double& sum, double& comp, double term) {
    const double t = sum + term;
    if (std::fabs(sum) >= std::fabs(term)) {
      comp += (sum - t) + term;
    } else {
      comp += (term - t) + sum;
    }
    sum = t;
  };
  std::array<double, kMaxLanes> sum{};
  std::array<double, kMaxLanes> comp{};
  for (graph::NodeId j = 0; j < n; ++j) {
    const double p = pi[j];
    const float* row = state + static_cast<std::size_t>(j) * stride;
    for (std::size_t b = 0; b < lanes; ++b) {
      compensated_add(sum[b], comp[b], std::fabs(static_cast<double>(row[b]) - p));
    }
  }
  for (std::size_t b = 0; b < lanes; ++b) tvd_out[b] = 0.5 * (sum[b] + comp[b]);
}

}  // namespace socmix::linalg::simd
