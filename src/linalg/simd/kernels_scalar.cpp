// Scalar (portable) kernel tier.
//
// The f64 SpMM kernel runs the pre-SIMD BatchedEvolver row body over one
// contiguous row range — it defines the per-lane floating-point operation
// sequence every other tier must reproduce bit for bit, and compiling it
// with the build's baseline flags keeps the default build's output
// identical to the pre-dispatch code.
//
// This TU is compiled with -ffp-contract=off (see src/linalg/CMakeLists)
// so a native build cannot contract the affine epilogues into FMAs —
// that pins the rounding points the vector tiers match.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "linalg/simd/kernels_detail.hpp"
#include "util/feistel.hpp"
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

// f64 row sweep over [a.begin, a.end). The inner loop is a single gather
// + add per edge: the state is kept prescaled (each row's new value is
// written times inv_deg[j] — the exact product a separate prescale pass
// would round), so the floating-point result per lane remains the
// operation sequence of the single-vector spmv epilogue + total_variation
// (CSR edge order, then ascending-row TVD) — bit-identical to a one-lane
// sweep. Lazy (cur set) also reads and rewrites the row's unscaled state
// in place. The TVD continues the caller's running sum in a.tvd_out.
template <std::size_t B, bool Lazy>
void sweep_f64(const SpmmArgs& a, const double* scaled, double* cur, double* next) {
  // Locals, not a.* reads: stores through next must not force reloads.
  const std::size_t lanes = B != 0 ? B : a.lanes;
  const std::size_t stride = a.stride;
  const graph::EdgeIndex* offsets = a.offsets;
  const graph::NodeId* neighbors = a.neighbors;
  const double* inv_deg = a.inv_deg;
  const double walk_weight = a.walk_weight;
  const double laziness = a.laziness;
  const double* pi = a.pi;
  std::array<double, kLaneCap<B>> acc{};
  std::array<double, kLaneCap<B>> tvd_acc{};
  if (pi != nullptr) {
    for (std::size_t b = 0; b < lanes; ++b) tvd_acc[b] = a.tvd_out[b];
  }
  for (graph::NodeId j = a.begin; j < a.end; ++j) {
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
    // acc becomes nx, the row's new unscaled value.
    if constexpr (Lazy) {
      double* cur_j = cur + static_cast<std::size_t>(j) * stride;
      for (std::size_t b = 0; b < lanes; ++b) {
        acc[b] = walk_weight * acc[b] + laziness * cur_j[b];
        cur_j[b] = acc[b];
      }
    } else {
      for (std::size_t b = 0; b < lanes; ++b) acc[b] = walk_weight * acc[b];
    }
    const double w = inv_deg[j];
    double* next_j = next + static_cast<std::size_t>(j) * stride;
    for (std::size_t b = 0; b < lanes; ++b) next_j[b] = acc[b] * w;
    if (pi != nullptr) {
      const double p = pi[j];
      for (std::size_t b = 0; b < lanes; ++b) tvd_acc[b] += std::fabs(acc[b] - p);
    }
  }
  if (pi != nullptr) {
    for (std::size_t b = 0; b < lanes; ++b) a.tvd_out[b] = tvd_acc[b];
  }
}

}  // namespace

void spmm_f64(const SpmmArgs& a, const double* scaled, double* cur, double* next) {
  with_lanes(a.lanes, [&]<std::size_t B>() {
    if (cur != nullptr) {
      sweep_f64<B, true>(a, scaled, cur, next);
    } else {
      sweep_f64<B, false>(a, scaled, cur, next);
    }
  });
}

void spmv(const SpmvArgs& a, graph::NodeId row_begin, graph::NodeId row_end) {
  // Rows go kSpmvRows at a time, one accumulator each. Every row is still
  // one serial chain of adds in CSR edge order — the same bits as a
  // one-row loop — but the chains of the group overlap instead of each
  // waiting out its own add latency: the group steps together through
  // its shortest row's length, then each row finishes its own tail.
  constexpr std::size_t kSpmvRows = 4;
  const graph::EdgeIndex* offsets = a.offsets;
  const graph::NodeId* neighbors = a.neighbors;
  const double* gather = a.gather;
  const auto finish = [&a](graph::NodeId i, double acc) {
    const double base = a.walk_weight * acc;
    a.y[i] = (a.row_scale != nullptr ? base * a.row_scale[i] : base) + a.laziness * a.x[i];
  };
  graph::NodeId i = row_begin;
  for (; row_end - i >= kSpmvRows; i += kSpmvRows) {
    graph::EdgeIndex edge[kSpmvRows + 1];
    for (std::size_t s = 0; s <= kSpmvRows; ++s) edge[s] = offsets[i + s];
    graph::EdgeIndex run = edge[1] - edge[0];
    for (std::size_t s = 1; s < kSpmvRows; ++s) run = std::min(run, edge[s + 1] - edge[s]);
    double acc[kSpmvRows] = {};
    for (graph::EdgeIndex k = 0; k < run; ++k) {
      for (std::size_t s = 0; s < kSpmvRows; ++s) acc[s] += gather[neighbors[edge[s] + k]];
    }
    for (std::size_t s = 0; s < kSpmvRows; ++s) {
      for (graph::EdgeIndex e = edge[s] + run; e < edge[s + 1]; ++e) {
        acc[s] += gather[neighbors[e]];
      }
      finish(i + static_cast<graph::NodeId>(s), acc[s]);
    }
  }
  for (; i < row_end; ++i) {
    double acc = 0.0;
    for (graph::EdgeIndex e = offsets[i]; e < offsets[i + 1]; ++e) acc += gather[neighbors[e]];
    finish(i, acc);
  }
}

void prescale_f64(const double* x, const double* w, double* out, std::size_t begin,
                  std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) out[i] = x[i] * w[i];
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

void route_hops(const RouteHopArgs& a) {
  // Route by route: the reference the AVX-512 tier reproduces word for
  // word (sybil::RouteTable::hop per instance).
  for (std::uint32_t i = 0; i < a.count; ++i) {
    const graph::EdgeIndex e = a.edge[i];
    const graph::NodeId head = a.neighbors[e];
    const graph::EdgeIndex base = a.offsets[head];
    const std::uint64_t key = util::route_permutation_key<std::uint64_t>(a.seed, i, head);
    a.from[i] = head;
    a.edge[i] = base + util::feistel_permute(key, a.offsets[head + 1] - base, a.rev[e]);
  }
}

double dot_f64(const double* a, const double* b, std::size_t len) {
  // Eight independent accumulators, so the adds do not form one serial
  // dependency chain; the vector tiers hold one per lane.
  double s[8] = {};
  std::size_t r = 0;
  for (; r + 8 <= len; r += 8) {
    for (std::size_t u = 0; u < 8; ++u) s[u] += a[r + u] * b[r + u];
  }
  for (; r < len; ++r) s[0] += a[r] * b[r];
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void axpy_f64(double alpha, const double* x, double* y, std::size_t len) {
  for (std::size_t r = 0; r < len; ++r) y[r] += alpha * x[r];
}

void divide_f64(const double* x, double d, double* y, std::size_t len) {
  for (std::size_t r = 0; r < len; ++r) y[r] = x[r] / d;
}

namespace {

constexpr std::size_t kCombineRows = 8;

// Sums rows [r, r + rows) of every output into tile[c], reading each
// column's rows once per output; Rows > 0 fixes rows at compile time.
template <std::size_t Rows>
void combine_tile(const CombineArgs& a, std::size_t r, std::size_t rows,
                  double (*tile)[kCombineRows]) {
  if constexpr (Rows != 0) rows = Rows;
  for (std::size_t c = 0; c < a.outputs; ++c) {
    const double* coeff = a.coeffs + c * a.used;
    double acc[kCombineRows] = {};
    for (std::size_t i = 0; i < a.used; ++i) {
      const double* q = a.columns + i * a.stride + r;
      for (std::size_t s = 0; s < rows; ++s) acc[s] += coeff[i] * q[s];
    }
    std::copy_n(acc, rows, tile[c]);
  }
}

}  // namespace

void combine_f64(const CombineArgs& a, std::size_t begin, std::size_t end) {
  // Every output of a row tile is summed before any is written, so an
  // output may be one of the columns.
  double tile[kMaxCombineOutputs][kCombineRows];
  for (std::size_t r = begin; r < end; r += kCombineRows) {
    const std::size_t rows = std::min(kCombineRows, end - r);
    if (rows == kCombineRows) {
      combine_tile<kCombineRows>(a, r, rows, tile);
    } else {
      combine_tile<0>(a, r, rows, tile);
    }
    for (std::size_t c = 0; c < a.outputs; ++c) std::copy_n(tile[c], rows, a.out[c] + r);
  }
}

}  // namespace socmix::linalg::simd::scalar
