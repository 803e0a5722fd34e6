#include "markov/estimators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/powerlaw_cluster.hpp"
#include "gen/reference.hpp"
#include "gen/sbm.hpp"
#include "gen/watts_strogatz.hpp"
#include "graph/components.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "util/rng.hpp"

namespace socmix::markov {
namespace {

TEST(SeparationDistance, UpperBoundsTotalVariation) {
  // s(t) >= tvd(t) always (standard inequality).
  util::Rng rng{1};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(60, 150, rng)).graph;
  const auto pi = stationary_distribution(g);
  const auto tvd = tvd_trajectory(g, 0, 30, pi);
  const auto sep = separation_trajectory(g, 0, 30);
  for (std::size_t t = 0; t < 30; ++t) {
    EXPECT_GE(sep[t] + 1e-12, tvd[t]) << "t=" << t;
  }
}

TEST(SeparationDistance, OneWhileAnyVertexUnreached) {
  // On a path, vertex n-1 is unreachable from 0 for t < n-1, so s = 1.
  const auto g = gen::path(6);
  EXPECT_DOUBLE_EQ(separation_distance(g, 0, 3), 1.0);
}

TEST(SeparationDistance, VanishesAtStationarity) {
  const auto g = gen::complete(15);
  EXPECT_LT(separation_distance(g, 0, 40), 1e-6);
}

TEST(SeparationDistance, InUnitInterval) {
  const auto g = gen::dumbbell(8, 1);
  for (const std::size_t t : {1u, 5u, 25u, 100u}) {
    const double s = separation_distance(g, 0, t);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(SeparationDistance, LazyVariantDiffers) {
  const auto g = gen::star(8);  // periodic simple walk
  EXPECT_DOUBLE_EQ(separation_distance(g, 1, 50), 1.0);  // parity: hub never odd
  EXPECT_LT(separation_distance(g, 1, 200, 0.5), 1e-3);  // lazy walk mixes
}

TEST(TailUniformity, ConvergesOnExpander) {
  // On a fast-mixing graph with enough walks, the tail distribution is
  // close to uniform over edges — the Whanau-style evidence.
  util::Rng rng{2};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(40, 160, rng)).graph;
  const auto result =
      estimate_tail_uniformity(g, 0, /*length=*/30, /*walks=*/60000, rng);
  EXPECT_LT(result.tvd_to_uniform, 0.15);
  EXPECT_LT(result.unseen_edge_fraction, 0.05);
}

TEST(TailUniformity, ShortWalksAreFarFromUniform) {
  util::Rng rng{3};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(200, 800, rng)).graph;
  const auto result = estimate_tail_uniformity(g, 0, /*length=*/1, /*walks=*/5000, rng);
  // Length-1 tails only cover the source's incident edges.
  EXPECT_GT(result.tvd_to_uniform, 0.5);
  EXPECT_GT(result.unseen_edge_fraction, 0.5);
}

TEST(TailUniformity, DegenerateInputs) {
  util::Rng rng{4};
  const auto g = gen::complete(5);
  EXPECT_DOUBLE_EQ(estimate_tail_uniformity(g, 0, 0, 100, rng).tvd_to_uniform, 1.0);
  EXPECT_DOUBLE_EQ(estimate_tail_uniformity(g, 0, 5, 0, rng).tvd_to_uniform, 1.0);
}

TEST(TailUniformity, PaperCritique_BenignHistogramsLargeTvd) {
  // The paper's §2 point against Whanau's evidence: eyeballed tail
  // histograms can look benign ("each edge within a small factor of
  // uniform") while the actual total variation distance is far from 0 —
  // "the convergence is very loose". On a dumbbell at w = 10, no sampled
  // edge is more than ~2.5x over-represented and nearly every edge is
  // hit, yet the TVD both of the tails and of the walk distribution
  // remains ~0.4.
  util::Rng rng{5};
  const auto g = gen::dumbbell(20, 1);
  const auto pi = stationary_distribution(g);
  const std::size_t w = 10;
  const auto tails = estimate_tail_uniformity(g, 0, w, 40000, rng);
  const auto tvd = tvd_trajectory(g, 0, w, pi).back();
  EXPECT_LT(tails.max_overrepresentation, 4.0);   // "looks near-uniform"
  EXPECT_LT(tails.unseen_edge_fraction, 0.05);    // almost all edges seen
  EXPECT_GT(tvd, 0.35);                           // ...but NOT mixed
  EXPECT_GT(tails.tvd_to_uniform, 0.35);          // full TVD reveals it
}

TEST(MonteCarloTvd, ApproachesExactWithManyWalks) {
  const auto g = gen::complete(12);
  const auto pi = stationary_distribution(g);
  util::Rng rng{6};
  const double estimate = monte_carlo_tvd(g, 0, 20, 200000, pi, rng);
  // Exact TVD at t=20 on K12 is ~0; the estimator's bias is O(sqrt(n/W)).
  EXPECT_LT(estimate, 0.05);
}

TEST(MonteCarloTvd, BiasedUpward) {
  // With few walks the plug-in estimator must overshoot the exact value.
  const auto g = gen::complete(30);
  const auto pi = stationary_distribution(g);
  util::Rng rng{7};
  const auto exact = tvd_trajectory(g, 0, 10, pi).back();
  const double noisy = monte_carlo_tvd(g, 0, 10, 50, pi, rng);
  EXPECT_GT(noisy, exact);
}

TEST(MonteCarloTvd, TracksExactOnSlowGraph) {
  const auto g = gen::dumbbell(10, 1);
  const auto pi = stationary_distribution(g);
  util::Rng rng{8};
  const auto exact = tvd_trajectory(g, 0, 15, pi).back();
  const double estimate = monte_carlo_tvd(g, 0, 15, 100000, pi, rng);
  EXPECT_NEAR(estimate, exact, 0.05);
}

TEST(MonteCarloTvd, BatchedSampledMixingLiesInTheEstimatorsIntervalOnGenerators) {
  // The batched evolver's per-source TVD (measure_sampled_mixing) against
  // walks actually sampled. With f the empirical endpoint distribution of
  // W walks, |estimate - tvd| <= ||f - p_t||_tv =: D, and
  //   E[D] <= 1/2 sum_v sqrt(p_v / W) <= 1/2 sqrt(n / W)   (the upward bias);
  // one walk moves D by at most 1/W, so by McDiarmid
  //   P(D > E[D] + eps) <= exp(-2 W eps^2).
  // eps is set for a 1e-9 miss probability per check.
  constexpr std::size_t kWalks = 40000;
  const double eps = std::sqrt(std::log(1e9) / (2.0 * kWalks));
  constexpr std::size_t kMaxSteps = 30;
  const std::size_t lengths[] = {1, 2, 5, 12, kMaxSteps};
  const std::function<graph::Graph(util::Rng&)> generators[] = {
      [](util::Rng& rng) { return gen::erdos_renyi_gnm(80, 200, rng); },
      [](util::Rng& rng) { return gen::barabasi_albert(80, 2, rng); },
      [](util::Rng& rng) { return gen::watts_strogatz(80, 4, 0.1, rng); },
      [](util::Rng& rng) { return gen::planted_communities(4, 20, 5.0, 0.5, rng); },
      [](util::Rng& rng) { return gen::powerlaw_cluster(80, 2, 0.5, rng); },
  };
  for (std::size_t kind = 0; kind < std::size(generators); ++kind) {
    for (const std::uint64_t seed : {3u, 17u, 91u}) {
      util::Rng rng{seed};
      const auto g = graph::largest_component(generators[kind](rng)).graph;
      const auto pi = stationary_distribution(g);
      const auto sources = pick_sources(g, 4, rng);
      const auto sampled = measure_sampled_mixing(g, sources, kMaxSteps);
      const double bound =
          0.5 * std::sqrt(static_cast<double>(g.num_nodes()) / kWalks) + eps;
      ASSERT_LT(bound, 0.1) << "the interval must be able to fail";
      for (std::size_t s = 0; s < sources.size(); ++s) {
        for (const std::size_t t : lengths) {
          const double estimate = monte_carlo_tvd(g, sources[s], t, kWalks, pi, rng);
          EXPECT_NEAR(sampled.tvd(s, t), estimate, bound)
              << "generator " << kind << " seed " << seed << " source " << sources[s]
              << " t=" << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace socmix::markov
