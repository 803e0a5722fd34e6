// The contract of the simd kernel layer (linalg/simd):
//
//  * the default f64 path is BIT-IDENTICAL across kernel tiers
//    (scalar / AVX2 / AVX-512) — on every Table-1 generator config,
//    at serial and contended thread counts, with one-shard and
//    four-shard sweeps (the SpMM over all rows with the fused TVD, and
//    over a sub-range with the deferred one);
//  * the single-vector SpMV consumers (WalkOperator, WeightedWalkOperator,
//    a one-lane BatchedEvolver) are bitwise tier-invariant too.
//
// Tiers unavailable on the build/host (e.g. AVX-512 on a plain CI runner)
// are skipped via the runtime tier_available probe.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/weights.hpp"
#include "graph/components.hpp"
#include "graph/graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/simd/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/walk_operator.hpp"
#include "linalg/weighted_operator.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace socmix {
namespace {

namespace simd = linalg::simd;

constexpr graph::NodeId kNodes = 400;
constexpr std::size_t kSources = 8;
constexpr std::size_t kSteps = 30;

/// Forces a kernel tier for one scope; restores runtime dispatch on exit.
class TierGuard {
 public:
  explicit TierGuard(simd::Tier tier) : ok_(simd::set_tier(tier)) {}
  ~TierGuard() { simd::reset_tier(); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  bool ok_;
};

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

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

markov::SampledMixing run(const graph::Graph& g, std::span<const graph::NodeId> sources,
                          std::uint32_t shards) {
  markov::SampledMixingOptions options;
  options.max_steps = kSteps;
  options.sharded = {.mode = graph::ShardPolicy::Mode::kFixed, .count = shards};
  return measure_sampled_mixing(g, sources, options);
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
    for (const std::uint32_t shards : {1u, 4u}) {
      // Reference: forced scalar tier, serial. Every other
      // (tier, threads) combination must reproduce it bit for bit.
      const markov::SampledMixing reference = [&] {
        const TierGuard guard{simd::Tier::kScalar};
        return run(g, sources, shards);
      }();
      for (const simd::Tier tier : tiers) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          if (tier == simd::Tier::kScalar && threads == 1) continue;
          const TierGuard guard{tier};
          ASSERT_TRUE(guard.ok());
          util::set_thread_count(threads);
          const markov::SampledMixing got = run(g, sources, shards);
          util::set_thread_count(0);
          expect_bitwise_equal(reference, got,
                               spec.name + " tier=" + simd::tier_name(tier) +
                                   " threads=" + std::to_string(threads) +
                                   " shards=" + std::to_string(shards));
        }
      }
    }
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

TEST(SimdTierParity, WeightedOperatorApplyBitIdenticalAcrossTiers) {
  util::Rng rng{47};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(250, 900, rng)).graph;
  const auto g = gen::pareto_weights(base, 1.5, rng);
  const linalg::WeightedWalkOperator op{g, 0.1};
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
