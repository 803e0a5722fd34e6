// The contract of the simd kernel layer (linalg/simd):
//
//  * the default f64 path is BIT-IDENTICAL across kernel tiers
//    (scalar / AVX2 / AVX-512) — on every Table-1 generator config,
//    at serial and contended thread counts, with the in-memory one-shard
//    sweep (one SpMM call over all rows) and a four-shard sweep of a
//    compressed pack (ADJC decode, and sub-range calls carrying the
//    running TVD sum);
//  * the single-vector SpMV consumers (WalkOperator, a one-lane
//    BatchedEvolver) are bitwise tier-invariant too;
//  * the kernel contract itself, on every tier: the SpMM writes the next
//    prescaled state (and, lazy, updates the unscaled one in place)
//    exactly as a naive row loop does, a range split that carries the
//    running TVD sum matches one call over every row, an in-place SpMV
//    (y == x) matches separate buffers bit for bit, the SpMV matches
//    a naive row-by-row reference on any row range, the Krylov-basis
//    kernels (dot, axpy, divide, combine, in place too) match their
//    elementwise references, and the CRC-32 returns util::crc32_update's
//    value at every length, alignment and split.
//
// Tiers unavailable on the build/host (e.g. AVX-512 on a plain CI runner)
// are skipped via the runtime tier_available probe.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/components.hpp"
#include "graph/graph.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "linalg/simd/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/walk_operator.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "util/checksum.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "simd_tiers.hpp"

namespace socmix {
namespace {

namespace simd = linalg::simd;

constexpr graph::NodeId kNodes = 400;
constexpr std::size_t kSources = 8;
constexpr std::size_t kSteps = 30;

using test::available_tiers;
using test::TierGuard;

std::vector<graph::NodeId> spread_sources(const graph::Graph& g,
                                          std::size_t count = kSources) {
  std::vector<graph::NodeId> sources;
  const graph::NodeId stride =
      std::max<graph::NodeId>(1, g.num_nodes() / static_cast<graph::NodeId>(count));
  for (graph::NodeId v = 0; sources.size() < count && v < g.num_nodes(); v += stride) {
    sources.push_back(v);
  }
  return sources;
}

/// The sampled measurement of `g` in memory, or (with a `pack_path`) of
/// its compressed pack, opened — and so decoded — on the active tier.
markov::SampledMixing run(const graph::Graph& g, std::span<const graph::NodeId> sources,
                          const std::string& pack_path) {
  markov::SampledMixingOptions options;
  options.max_steps = kSteps;
  if (pack_path.empty()) return measure_sampled_mixing(g, sources, options);
  const graph::sharded::MappedGraph pack{pack_path};
  return measure_sampled_mixing(pack.view(), sources, options);
}

void expect_bitwise_equal(const markov::SampledMixing& a, const markov::SampledMixing& b,
                          const std::string& label) {
  ASSERT_EQ(a.num_sources(), b.num_sources()) << label;
  for (std::size_t s = 0; s < a.num_sources(); ++s) {
    for (std::size_t t = 1; t <= a.max_steps(); ++t) {
      ASSERT_EQ(a.tvd(s, t), b.tvd(s, t)) << label << " s=" << s << " t=" << t;
    }
  }
}

// ------------------------------------------------------------ f64 parity --

TEST(SimdTierParity, SampledMixingBitIdenticalAcrossTiersOnEveryTable1Config) {
  const auto tiers = available_tiers();
  ASSERT_FALSE(tiers.empty());
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    const std::string path =
        (std::filesystem::path{testing::TempDir()} / "simd_parity.smxg").string();
    graph::sharded::WriteOptions compress;
    compress.compress = true;
    graph::sharded::write_smxg_file(path, g, compress);
    for (const bool compressed : {false, true}) {
      // Reference: forced scalar tier, serial. Every other
      // (tier, threads) combination must reproduce it bit for bit.
      const std::string pack_path = compressed ? path : std::string{};
      const markov::SampledMixing reference = [&] {
        const TierGuard guard{simd::Tier::kScalar};
        return run(g, sources, pack_path);
      }();
      for (const simd::Tier tier : tiers) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          if (tier == simd::Tier::kScalar && threads == 1) continue;
          const TierGuard guard{tier};
          ASSERT_TRUE(guard.ok());
          util::set_thread_count(threads);
          const markov::SampledMixing got = run(g, sources, pack_path);
          util::set_thread_count(0);
          expect_bitwise_equal(reference, got,
                               spec.name + " tier=" + simd::tier_name(tier) +
                                   " threads=" + std::to_string(threads) +
                                   (compressed ? " compressed pack" : " in memory"));
        }
      }
    }
    std::remove(path.c_str());
  }
}

TEST(SimdTierParity, WalkOperatorApplyBitIdenticalAcrossTiers) {
  util::Rng rng{31};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(300, 1200, rng)).graph;
  const linalg::WalkOperator op{g, 0.2};
  linalg::Vec x(op.dim());
  linalg::randomize_unit(x, rng);

  linalg::Vec reference(op.dim());
  {
    const TierGuard guard{simd::Tier::kScalar};
    op.apply(x, reference);
  }
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    linalg::Vec y(op.dim());
    op.apply(x, y);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(reference[i], y[i]) << "tier=" << simd::tier_name(tier) << " i=" << i;
    }
  }
}

TEST(SimdTierParity, EvolverTrajectoryBitIdenticalAcrossTiers) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 5);
  const std::vector<double> pi = markov::stationary_distribution(g);

  const auto reference = [&] {
    const TierGuard guard{simd::Tier::kScalar};
    return markov::tvd_trajectory(g, 123, kSteps, pi, 0.3);
  }();
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    const auto got = markov::tvd_trajectory(g, 123, kSteps, pi, 0.3);
    ASSERT_EQ(reference, got) << "tier=" << simd::tier_name(tier);
  }
}

// ------------------------------------------------------- kernel contract --

/// A random lane-major sweep input at the widest stride over a small
/// graph, with a positive pi.
struct SweepInput {
  graph::Graph g;
  std::vector<double> scaled;
  std::vector<double> cur;
  std::vector<double> pi;
  std::vector<double> inv_deg;
};

SweepInput make_sweep_input() {
  util::Rng rng{59};
  auto g = graph::largest_component(gen::erdos_renyi_gnm(300, 1500, rng)).graph;
  const auto uniform = [&rng](std::size_t size) {
    std::vector<double> v(size);
    for (double& x : v) x = rng.uniform();
    return v;
  };
  const std::size_t cells = static_cast<std::size_t>(g.num_nodes()) * simd::kMaxLanes;
  std::vector<double> scaled = uniform(cells);
  std::vector<double> cur = uniform(cells);
  std::vector<double> pi = uniform(g.num_nodes());
  std::vector<double> inv_deg(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    inv_deg[v] = 1.0 / static_cast<double>(g.degree(v));
  }
  return {std::move(g), std::move(scaled), std::move(cur), std::move(pi),
          std::move(inv_deg)};
}

/// One SpMM call over rows [begin, end), continuing the running TVD in
/// tvd; `cur` is null for a non-lazy sweep.
void spmm(const SweepInput& in, std::size_t lanes, graph::NodeId begin, graph::NodeId end,
          double* cur, double* next, double* tvd) {
  simd::SpmmArgs args;
  args.begin = begin;
  args.end = end;
  args.offsets = in.g.offsets().data();
  args.neighbors = in.g.raw_neighbors().data();
  args.inv_deg = in.inv_deg.data();
  args.stride = simd::kMaxLanes;
  args.lanes = lanes;
  args.laziness = cur != nullptr ? 0.3 : 0.0;
  args.walk_weight = 1.0 - args.laziness;
  args.pi = in.pi.data();
  args.tvd_out = tvd;
  simd::dispatch().spmm_f64(args, in.scaled.data(), cur, next);
}

std::string contract_label(simd::Tier tier, std::size_t lanes) {
  return std::string{"tier="} + simd::tier_name(tier) + " lanes=" + std::to_string(lanes);
}

// The wide widths, and 7: the scalar fallback of every vector tier.
constexpr std::size_t kContractLanes[] = {4, 8, 16, 32, 7};

TEST(SimdKernelContract, RangeSplitCarriesTheRunningTvdSum) {
  const SweepInput in = make_sweep_input();
  const graph::NodeId n = in.g.num_nodes();
  const graph::NodeId cuts[] = {0, n / 5, (2 * n) / 3, n};
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    for (const std::size_t lanes : kContractLanes) {
      for (const bool lazy : {false, true}) {
        std::vector<double> whole_cur = in.cur;
        std::vector<double> whole(in.scaled.size(), -1.0);
        std::vector<double> tvd_whole(lanes, 0.0);
        spmm(in, lanes, 0, n, lazy ? whole_cur.data() : nullptr, whole.data(),
             tvd_whole.data());

        std::vector<double> split_cur = in.cur;
        std::vector<double> split(in.scaled.size(), -1.0);
        std::vector<double> tvd_split(lanes, 0.0);
        for (std::size_t r = 0; r + 1 < std::size(cuts); ++r) {
          spmm(in, lanes, cuts[r], cuts[r + 1], lazy ? split_cur.data() : nullptr,
               split.data(), tvd_split.data());
        }
        const std::string label =
            contract_label(tier, lanes) + " lazy=" + std::to_string(lazy);
        ASSERT_EQ(tvd_whole, tvd_split) << label;
        ASSERT_EQ(whole, split) << label;
        ASSERT_EQ(whole_cur, split_cur) << label;
      }
    }
  }
}

/// A hand-made CSR: a star hub (row 2, adjacent to every other row)
/// between degree-1 rows, an empty row, and then degrees cycling through
/// 0..9 — the row shapes a parallel_for chunk or a pack can hand a kernel.
struct CsrInput {
  std::vector<graph::EdgeIndex> offsets{0};
  std::vector<graph::NodeId> neighbors;
  [[nodiscard]] graph::NodeId rows() const {
    return static_cast<graph::NodeId>(offsets.size() - 1);
  }
};

CsrInput make_star_csr(util::Rng& rng) {
  constexpr graph::NodeId kRows = 70;
  constexpr graph::NodeId kHub = 2;
  CsrInput in;
  for (graph::NodeId v = 0; v < kRows; ++v) {
    if (v == kHub) {
      for (graph::NodeId u = 0; u < kRows; ++u) {
        if (u != kHub) in.neighbors.push_back(u);
      }
    } else if (v < 5) {
      in.neighbors.push_back(kHub);
    } else if (v > 5) {
      for (graph::NodeId e = 0; e < v % 10; ++e) {
        in.neighbors.push_back(static_cast<graph::NodeId>(rng.below(kRows)));
      }
    }
    in.offsets.push_back(in.neighbors.size());
  }
  return in;
}

std::vector<double> uniform_values(util::Rng& rng, std::size_t size) {
  std::vector<double> v(size);
  for (double& x : v) x = rng.uniform();
  return v;
}

/// What one SpMM sweep of every row writes.
struct SpmmResult {
  std::vector<double> next;
  std::vector<double> cur;
  std::vector<double> tvd;
};

/// The SpMM of simd::SpmmArgs written as a naive row loop over lanes
/// [0, lanes) of a stride-kMaxLanes block. Every product is rounded on its
/// own (the volatile stores keep a compiler from contracting it into an
/// FMA, which no kernel tier uses).
SpmmResult naive_spmm(const CsrInput& csr, const std::vector<double>& scaled,
                      std::vector<double> cur, std::vector<double> next,
                      const std::vector<double>& inv_deg, const std::vector<double>& pi,
                      std::size_t lanes, double laziness, bool with_pi) {
  constexpr std::size_t kStride = simd::kMaxLanes;
  std::vector<double> tvd(lanes, 0.0);
  for (graph::NodeId j = 0; j < csr.rows(); ++j) {
    for (std::size_t b = 0; b < lanes; ++b) {
      double acc = 0.0;
      for (graph::EdgeIndex e = csr.offsets[j]; e < csr.offsets[j + 1]; ++e) {
        acc += scaled[csr.neighbors[e] * kStride + b];
      }
      volatile double nx = (1.0 - laziness) * acc;
      if (laziness > 0.0) {
        volatile const double lazy = laziness * cur[j * kStride + b];
        nx = nx + lazy;
        cur[j * kStride + b] = nx;
      }
      next[j * kStride + b] = nx * inv_deg[j];
      if (with_pi) tvd[b] += std::fabs(nx - pi[j]);
    }
  }
  if (!with_pi) tvd.clear();
  return {std::move(next), std::move(cur), std::move(tvd)};
}

TEST(SimdKernelContract, SpmmWritesTheNextPrescaledStateOnEveryTier) {
  util::Rng rng{97};
  const CsrInput csr = make_star_csr(rng);
  const graph::NodeId n = csr.rows();
  const std::size_t cells = static_cast<std::size_t>(n) * simd::kMaxLanes;
  const std::vector<double> scaled = uniform_values(rng, cells);
  const std::vector<double> cur = uniform_values(rng, cells);
  const std::vector<double> pi = uniform_values(rng, n);
  const std::vector<double> inv_deg = uniform_values(rng, n);
  // Sentinels mark the cells a call must leave alone (lanes >= `lanes`).
  const std::vector<double> untouched(cells, -7.0);
  // Ascending row splits: every row at once, the hub row alone, and the
  // pieces of a three-way parallel_for cut.
  const std::vector<std::vector<graph::NodeId>> splits{
      {0, n}, {0, 2, 3, n}, {0, 1, 23, 47, n}};
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    for (const std::size_t lanes : {1, 3, 4, 5, 8, 16, 17, 31, 32}) {
      for (const double laziness : {0.0, 0.3}) {
        for (const bool with_pi : {false, true}) {
          const SpmmResult want = naive_spmm(csr, scaled, cur, untouched, inv_deg, pi,
                                             lanes, laziness, with_pi);
          for (const auto& cuts : splits) {
            SpmmResult got{untouched, cur, std::vector<double>(lanes, 0.0)};
            simd::SpmmArgs args;
            args.offsets = csr.offsets.data();
            args.neighbors = csr.neighbors.data();
            args.inv_deg = inv_deg.data();
            args.stride = simd::kMaxLanes;
            args.lanes = lanes;
            args.walk_weight = 1.0 - laziness;
            args.laziness = laziness;
            args.pi = with_pi ? pi.data() : nullptr;
            args.tvd_out = with_pi ? got.tvd.data() : nullptr;
            for (std::size_t r = 0; r + 1 < cuts.size(); ++r) {
              args.begin = cuts[r];
              args.end = cuts[r + 1];
              simd::dispatch().spmm_f64(args, scaled.data(),
                                        laziness > 0.0 ? got.cur.data() : nullptr,
                                        got.next.data());
            }
            if (!with_pi) got.tvd.clear();
            const std::string label = contract_label(tier, lanes) +
                                      " laziness=" + std::to_string(laziness) +
                                      " pi=" + std::to_string(with_pi) +
                                      " ranges=" + std::to_string(cuts.size() - 1);
            ASSERT_EQ(got.tvd, want.tvd) << label;
            for (std::size_t cell = 0; cell < cells; ++cell) {
              ASSERT_EQ(got.next[cell], want.next[cell]) << label << " cell=" << cell;
              ASSERT_EQ(got.cur[cell], want.cur[cell]) << label << " cur cell=" << cell;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelContract, InPlaceSpmvMatchesSeparateBuffersOnEveryTier) {
  const SweepInput in = make_sweep_input();
  const graph::NodeId n = in.g.num_nodes();
  const std::vector<double> gather(in.scaled.begin(), in.scaled.begin() + n);
  const std::vector<double> x(in.cur.begin(), in.cur.begin() + n);
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    simd::SpmvArgs args;
    args.offsets = in.g.offsets().data();
    args.neighbors = in.g.raw_neighbors().data();
    args.gather = gather.data();
    args.walk_weight = 0.7;
    args.laziness = 0.3;

    std::vector<double> y(n, -1.0);
    args.x = x.data();
    args.y = y.data();
    simd::dispatch().spmv(args, 0, n);

    std::vector<double> state = x;
    args.x = state.data();
    args.y = state.data();
    simd::dispatch().spmv(args, 0, n);
    ASSERT_EQ(y, state) << "tier=" << simd::tier_name(tier);
  }
}

/// The star CSR for the SpMV kernel, which walks rows four at a time
/// through their shortest row's length and then finishes each tail.
struct SpmvInput : CsrInput {
  std::vector<double> gather;
  std::vector<double> x;
  std::vector<double> row_scale;
};

SpmvInput make_spmv_input() {
  util::Rng rng{73};
  SpmvInput in;
  static_cast<CsrInput&>(in) = make_star_csr(rng);
  const auto uniform = [&rng, &in] {
    std::vector<double> v(in.rows());
    for (double& x : v) x = rng.uniform() - 0.5;
    return v;
  };
  in.gather = uniform();
  in.x = uniform();
  in.row_scale = uniform();
  return in;
}

constexpr double kSpmvWalkWeight = 0.7;
constexpr double kSpmvLaziness = 0.3;

/// y = SpMV(x) row by row in CSR edge order: the operation sequence of
/// simd::SpmvArgs. Every product is rounded on its own (the volatile
/// stores keep a compiler from contracting it into an FMA, which no
/// kernel tier uses).
std::vector<double> naive_spmv(const SpmvInput& in, bool scaled) {
  std::vector<double> y(in.rows());
  for (graph::NodeId i = 0; i < in.rows(); ++i) {
    double acc = 0.0;
    for (graph::EdgeIndex e = in.offsets[i]; e < in.offsets[i + 1]; ++e) {
      acc += in.gather[in.neighbors[e]];
    }
    volatile double base = kSpmvWalkWeight * acc;
    if (scaled) base = base * in.row_scale[i];
    volatile const double lazy = kSpmvLaziness * in.x[i];
    y[i] = base + lazy;
  }
  return y;
}

TEST(SimdKernelContract, SpmvMatchesTheRowByRowReferenceOnEveryTier) {
  const SpmvInput in = make_spmv_input();
  const graph::NodeId n = in.rows();
  // Row ranges as parallel_for chunks cut them: lengths 1..9 at odd
  // starts (the hub, row 2, sits inside several), plus every row at once.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> ranges{{0, n}};
  for (const graph::NodeId start : {1u, 3u, 7u, 13u, 61u}) {
    for (graph::NodeId len = 1; len <= 9; ++len) ranges.emplace_back(start, start + len);
  }
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    for (const bool scaled : {false, true}) {
      const std::vector<double> want = naive_spmv(in, scaled);
      simd::SpmvArgs args;
      args.offsets = in.offsets.data();
      args.neighbors = in.neighbors.data();
      args.gather = in.gather.data();
      args.walk_weight = kSpmvWalkWeight;
      args.laziness = kSpmvLaziness;
      args.row_scale = scaled ? in.row_scale.data() : nullptr;
      for (const auto& [lo, hi] : ranges) {
        for (const bool in_place : {false, true}) {
          // Rows outside the range keep their old value: the sentinel, or
          // x itself when y is x.
          std::vector<double> state = in_place ? in.x : std::vector<double>(n, -7.0);
          const std::vector<double> before = state;
          args.x = in_place ? state.data() : in.x.data();
          args.y = state.data();
          simd::dispatch().spmv(args, lo, hi);
          for (graph::NodeId i = 0; i < n; ++i) {
            ASSERT_EQ(state[i], lo <= i && i < hi ? want[i] : before[i])
                << "tier=" << simd::tier_name(tier) << " row_scale=" << scaled
                << " rows=[" << lo << "," << hi << ") in_place=" << in_place << " row=" << i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------- Krylov-basis kernels --

/// Lengths around the eight-accumulator groups, the vector widths and the
/// kLanczosRowChunk = 1024 chunk Lanczos calls the basis kernels on.
constexpr std::size_t kBasisLengths[] = {1, 7, 8, 1023, 1024, 1025};

/// Values of mixed sign and magnitude, so every rounding shows.
std::vector<double> basis_values(std::size_t len, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<double> v(len);
  for (double& x : v) {
    x = (rng.uniform() - 0.5) * std::ldexp(1.0, static_cast<int>(rng.below(9)) - 4);
  }
  return v;
}

TEST(SimdKernelContract, DotMatchesTheEightAccumulatorReferenceOnEveryTier) {
  for (const std::size_t len : kBasisLengths) {
    // One past an aligned start as well, as a chunk of a column may be.
    const std::vector<double> a = basis_values(len + 1, 1);
    const std::vector<double> b = basis_values(len + 1, 2);
    for (const std::size_t offset : {0u, 1u}) {
      const double* pa = a.data() + offset;
      const double* pb = b.data() + offset;
      const std::size_t n = len + 1 - offset;
      double s[8] = {};
      std::size_t r = 0;
      for (; r + 8 <= n; r += 8) {
        for (std::size_t u = 0; u < 8; ++u) {
          volatile const double product = pa[r + u] * pb[r + u];
          s[u] += product;
        }
      }
      for (; r < n; ++r) {
        volatile const double product = pa[r] * pb[r];
        s[0] += product;
      }
      const double want = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
      for (const simd::Tier tier : available_tiers()) {
        const TierGuard guard{tier};
        ASSERT_TRUE(guard.ok());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(simd::dispatch().dot_f64(pa, pb, n)),
                  std::bit_cast<std::uint64_t>(want))
            << "tier=" << simd::tier_name(tier) << " len=" << n;
      }
    }
  }
  // The tail joins s[0] before s[0] + s[1]: (1e16 + 1) + 1 rounds to 1e16,
  // where 1e16 + (1 + 1) would not.
  const std::vector<double> ones(9, 1.0);
  const std::vector<double> skewed{1e16, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0};
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(simd::dispatch().dot_f64(skewed.data(), ones.data(), 9), 1e16)
        << "tier=" << simd::tier_name(tier);
  }
}

TEST(SimdKernelContract, AxpyAndDivideMatchTheElementwiseReferenceOnEveryTier) {
  constexpr double kAlpha = -0.3183098861837907;
  constexpr double kDivisor = 2.718281828459045;
  for (const std::size_t len : kBasisLengths) {
    const std::vector<double> x = basis_values(len, 3);
    const std::vector<double> y0 = basis_values(len, 4);
    std::vector<double> want_axpy(len);
    std::vector<double> want_divide(len);
    for (std::size_t r = 0; r < len; ++r) {
      volatile const double product = kAlpha * x[r];
      want_axpy[r] = y0[r] + product;
      want_divide[r] = x[r] / kDivisor;
    }
    for (const simd::Tier tier : available_tiers()) {
      const TierGuard guard{tier};
      ASSERT_TRUE(guard.ok());
      std::vector<double> y = y0;
      simd::dispatch().axpy_f64(kAlpha, x.data(), y.data(), len);
      EXPECT_EQ(y, want_axpy) << "tier=" << simd::tier_name(tier) << " len=" << len;
      std::vector<double> q(len, -7.0);
      simd::dispatch().divide_f64(x.data(), kDivisor, q.data(), len);
      EXPECT_EQ(q, want_divide) << "tier=" << simd::tier_name(tier) << " len=" << len;
      // In place, as a column may be divided into itself.
      q = x;
      simd::dispatch().divide_f64(q.data(), kDivisor, q.data(), len);
      EXPECT_EQ(q, want_divide) << "tier=" << simd::tier_name(tier) << " len=" << len;
    }
  }
}

TEST(SimdKernelContract, CombineMatchesTheReferenceAndRotatesInPlaceOnEveryTier) {
  // Columns as a KrylovBasis holds them; row ranges [lo, lo + len) as
  // Lanczos's chunks cut them, at an unaligned start too; up to
  // kMaxCombineOutputs outputs (a restart keeps 16 Ritz vectors).
  constexpr std::size_t kUsed = 17;
  constexpr std::size_t kStride = 1027;
  const std::vector<double> columns = basis_values(kUsed * kStride, 5);
  for (const std::size_t outputs : {1u, 2u, 3u, 7u, 16u}) {
    const std::vector<double> coeffs = basis_values(outputs * kUsed, 6 + outputs);
    for (const std::size_t len : kBasisLengths) {
      for (const std::size_t lo : {0u, 1u}) {
        const std::size_t hi = std::min(lo + len, kStride);
        // out[c][r] from +0.0 in ascending i, each product rounded.
        std::vector<double> want(outputs * kStride);
        for (std::size_t c = 0; c < outputs; ++c) {
          for (std::size_t r = 0; r < kStride; ++r) {
            double acc = 0.0;
            for (std::size_t i = 0; i < kUsed; ++i) {
              volatile const double product = coeffs[c * kUsed + i] * columns[i * kStride + r];
              acc += product;
            }
            want[c * kStride + r] = acc;
          }
        }
        for (const simd::Tier tier : available_tiers()) {
          const TierGuard guard{tier};
          ASSERT_TRUE(guard.ok());
          for (const bool in_place : {false, true}) {
            // In place: output c is column c, as a thick restart rotates
            // the basis onto its kept Ritz vectors.
            std::vector<double> basis = columns;
            std::vector<double> separate(outputs * kStride, -7.0);
            double* target = in_place ? basis.data() : separate.data();
            const std::vector<double> before{target, target + outputs * kStride};
            std::vector<double*> out(outputs);
            for (std::size_t c = 0; c < outputs; ++c) out[c] = target + c * kStride;
            const simd::CombineArgs args{.columns = basis.data(),
                                         .stride = kStride,
                                         .used = kUsed,
                                         .coeffs = coeffs.data(),
                                         .out = out.data(),
                                         .outputs = outputs};
            simd::dispatch().combine_f64(args, lo, hi);
            for (std::size_t c = 0; c < outputs; ++c) {
              for (std::size_t r = 0; r < kStride; ++r) {
                const std::size_t cell = c * kStride + r;
                ASSERT_EQ(target[cell], lo <= r && r < hi ? want[cell] : before[cell])
                    << "tier=" << simd::tier_name(tier) << " outputs=" << outputs
                    << " rows=[" << lo << "," << hi << ") in_place=" << in_place
                    << " c=" << c << " r=" << r;
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelContract, Crc32MatchesUtilOnEveryTier) {
  // Every length that takes the short path, the 64-byte folds and the
  // sub-16-byte tail, at every start offset within a cache line; every
  // split of an incremental update; and 1 MB in one call.
  std::vector<std::byte> bytes(std::size_t{1} << 20);
  util::Rng rng{33};
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng() & 0xffu);
  const std::span<const std::byte> all{bytes};
  const std::span<const std::byte> page = all.first(4096);
  const std::uint32_t page_crc = util::crc32_update(util::kCrc32Init, page);
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    const simd::Crc32UpdateFn crc = simd::dispatch().crc32_update;
    for (std::size_t offset = 0; offset < 64; ++offset) {
      for (std::size_t len = 0; len <= 300; ++len) {
        const auto piece = all.subspan(offset, len);
        // A running state other than the initial one enters the fold too.
        for (const std::uint32_t state : {util::kCrc32Init, 0x1234abcdu}) {
          ASSERT_EQ(crc(state, piece), util::crc32_update(state, piece))
              << "tier=" << simd::tier_name(tier) << " offset=" << offset
              << " len=" << len << " state=" << state;
        }
      }
    }
    for (std::size_t split = 0; split <= page.size(); ++split) {
      ASSERT_EQ(crc(crc(util::kCrc32Init, page.first(split)), page.subspan(split)),
                page_crc)
          << "tier=" << simd::tier_name(tier) << " split=" << split;
    }
    EXPECT_EQ(util::crc32_final(crc(util::kCrc32Init, all)), util::crc32(all))
        << "tier=" << simd::tier_name(tier);
  }
}

// --------------------------------------------------------------- dispatch --

TEST(SimdDispatch, ScalarAlwaysAvailableAndNamesRoundTrip) {
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  for (const simd::Tier tier : available_tiers()) {
    const auto parsed = simd::parse_tier(simd::tier_name(tier));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, tier);
    ASSERT_TRUE(simd::set_tier(tier));
    EXPECT_EQ(simd::active_tier(), tier);
    simd::reset_tier();
  }
  EXPECT_FALSE(simd::parse_tier("sse9").has_value());
  // The active tier after reset is whatever the CPU probe picked — one of
  // the compiled tiers, and necessarily an available one.
  EXPECT_TRUE(simd::tier_available(simd::active_tier()));
}

TEST(SimdDispatch, SetTierRejectsUnavailableTier) {
  for (const simd::Tier tier : {simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(tier)) continue;
    const simd::Tier before = simd::active_tier();
    EXPECT_FALSE(simd::set_tier(tier));
    EXPECT_EQ(simd::active_tier(), before);
  }
}

}  // namespace
}  // namespace socmix
