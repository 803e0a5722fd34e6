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
//  * the kernel contract itself, on every tier: an in-place sweep
//    (next == cur for the SpMM, y == x for the SpMV) matches separate
//    buffers bit for bit, a range split that carries the running TVD
//    sum matches one call over every row, and the SpMV matches a naive
//    row-by-row reference on any row range.
//
// Tiers unavailable on the build/host (e.g. AVX-512 on a plain CI runner)
// are skipped via the runtime tier_available probe.
#include <gtest/gtest.h>

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
  return {std::move(g), std::move(scaled), std::move(cur), std::move(pi)};
}

/// One SpMM call over rows [begin, end), continuing the running TVD in tvd.
void spmm(const SweepInput& in, std::size_t lanes, graph::NodeId begin, graph::NodeId end,
          const double* cur, double* next, double* tvd) {
  simd::SpmmArgs args;
  args.begin = begin;
  args.end = end;
  args.offsets = in.g.offsets().data();
  args.neighbors = in.g.raw_neighbors().data();
  args.stride = simd::kMaxLanes;
  args.lanes = lanes;
  args.walk_weight = 0.7;
  args.laziness = 0.3;
  args.pi = in.pi.data();
  args.tvd_out = tvd;
  simd::dispatch().spmm_f64(args, in.scaled.data(), cur, next);
}

std::string contract_label(simd::Tier tier, std::size_t lanes) {
  return std::string{"tier="} + simd::tier_name(tier) + " lanes=" + std::to_string(lanes);
}

// The wide widths, and 7: the scalar fallback of every vector tier.
constexpr std::size_t kContractLanes[] = {4, 8, 16, 32, 7};

TEST(SimdKernelContract, InPlaceSpmmMatchesSeparateBuffersOnEveryTier) {
  const SweepInput in = make_sweep_input();
  const graph::NodeId n = in.g.num_nodes();
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    for (const std::size_t lanes : kContractLanes) {
      std::vector<double> next(in.cur.size(), -1.0);
      std::vector<double> tvd_separate(lanes, 0.0);
      spmm(in, lanes, 0, n, in.cur.data(), next.data(), tvd_separate.data());

      std::vector<double> state = in.cur;
      std::vector<double> tvd_in_place(lanes, 0.0);
      spmm(in, lanes, 0, n, state.data(), state.data(), tvd_in_place.data());

      ASSERT_EQ(tvd_separate, tvd_in_place) << contract_label(tier, lanes);
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t b = 0; b < lanes; ++b) {
          const std::size_t cell = j * simd::kMaxLanes + b;
          ASSERT_EQ(next[cell], state[cell])
              << contract_label(tier, lanes) << " row=" << j << " lane=" << b;
        }
      }
    }
  }
}

TEST(SimdKernelContract, RangeSplitCarriesTheRunningTvdSum) {
  const SweepInput in = make_sweep_input();
  const graph::NodeId n = in.g.num_nodes();
  const graph::NodeId cuts[] = {0, n / 5, (2 * n) / 3, n};
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    for (const std::size_t lanes : kContractLanes) {
      std::vector<double> whole = in.cur;
      std::vector<double> tvd_whole(lanes, 0.0);
      spmm(in, lanes, 0, n, whole.data(), whole.data(), tvd_whole.data());

      std::vector<double> split = in.cur;
      std::vector<double> tvd_split(lanes, 0.0);
      double* state = split.data();
      for (std::size_t r = 0; r + 1 < std::size(cuts); ++r) {
        spmm(in, lanes, cuts[r], cuts[r + 1], state, state, tvd_split.data());
      }
      ASSERT_EQ(tvd_whole, tvd_split) << contract_label(tier, lanes);
      ASSERT_EQ(whole, split) << contract_label(tier, lanes);
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

/// A hand-made CSR for the SpMV kernel, which walks rows four at a time
/// through their shortest row's length and then finishes each tail: a star
/// hub (row 2, adjacent to every other row) between degree-1 rows, an
/// empty row, and then degrees cycling through 0..9.
struct SpmvInput {
  std::vector<graph::EdgeIndex> offsets{0};
  std::vector<graph::NodeId> neighbors;
  std::vector<double> gather;
  std::vector<double> x;
  std::vector<double> row_scale;
  [[nodiscard]] graph::NodeId rows() const {
    return static_cast<graph::NodeId>(offsets.size() - 1);
  }
};

SpmvInput make_spmv_input() {
  constexpr graph::NodeId kRows = 70;
  constexpr graph::NodeId kHub = 2;
  util::Rng rng{73};
  SpmvInput in;
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
  const auto uniform = [&rng] {
    std::vector<double> v(kRows);
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
