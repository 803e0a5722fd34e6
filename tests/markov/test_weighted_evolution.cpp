#include "markov/weighted_evolution.hpp"

#include <gtest/gtest.h>

#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "gen/weights.hpp"
#include "graph/components.hpp"
#include "linalg/vector_ops.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/stationary.hpp"
#include "util/rng.hpp"

namespace socmix::markov {
namespace {

TEST(WeightedStationary, StrengthProportional) {
  const auto g = graph::WeightedGraph::from_edges({{0, 1, 3.0}, {1, 2, 1.0}});
  const auto pi = weighted_stationary_distribution(g);
  // strengths: 3, 4, 1; total 8.
  EXPECT_DOUBLE_EQ(pi[0], 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(pi[1], 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(pi[2], 1.0 / 8.0);
  EXPECT_TRUE(is_distribution(pi));
}

TEST(WeightedEvolver, StationaryIsFixedPoint) {
  util::Rng rng{1};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(40, 120, rng)).graph;
  const auto g = gen::pareto_weights(base, 1.5, rng);
  const auto pi = weighted_stationary_distribution(g);
  WeightedEvolver evolver{g};
  std::vector<double> next(pi.size());
  evolver.step(pi, next);
  for (std::size_t v = 0; v < pi.size(); ++v) EXPECT_NEAR(next[v], pi[v], 1e-13);
}

TEST(WeightedEvolver, PreservesDistributions) {
  util::Rng rng{2};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(30, 80, rng)).graph;
  const auto g = gen::pareto_weights(base, 2.0, rng);
  WeightedEvolver evolver{g};
  auto dist = evolver.point_mass(0);
  for (int t = 0; t < 25; ++t) {
    evolver.advance(dist, 1);
    EXPECT_TRUE(is_distribution(dist)) << "t=" << t;
  }
}

TEST(WeightedEvolver, UnitWeightsMatchUnweightedEvolution) {
  util::Rng rng{3};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(50, 130, rng)).graph;
  const auto g = gen::unit_weights(base);
  WeightedEvolver weighted{g};
  const auto a = walk_distribution(base, 4, 9);
  auto b = weighted.point_mass(4);
  weighted.advance(b, 9);
  for (std::size_t v = 0; v < a.size(); ++v) EXPECT_NEAR(a[v], b[v], 1e-13);
}

TEST(WeightedEvolver, TwoNodeExactStep) {
  const auto g = graph::WeightedGraph::from_edges({{0, 1, 5.0}});
  WeightedEvolver evolver{g};
  auto dist = evolver.point_mass(0);
  evolver.advance(dist, 1);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
}

TEST(WeightedEvolver, WeightedThreePathExactStep) {
  // 0 -2.0- 1 -1.0- 2: from mass at 1, step splits 2/3 : 1/3.
  const auto g = graph::WeightedGraph::from_edges({{0, 1, 2.0}, {1, 2, 1.0}});
  WeightedEvolver evolver{g};
  auto dist = evolver.point_mass(1);
  evolver.advance(dist, 1);
  EXPECT_NEAR(dist[0], 2.0 / 3.0, 1e-15);
  EXPECT_NEAR(dist[2], 1.0 / 3.0, 1e-15);
}

TEST(WeightedTvdTrajectory, ConvergesOnAperiodicGraph) {
  util::Rng rng{4};
  const auto base = gen::dumbbell(8, 2);
  const auto g = gen::pareto_weights(base, 1.2, rng);
  const auto traj = weighted_tvd_trajectory(g, 0, 400);
  EXPECT_LT(traj.back(), 0.05);
  EXPECT_GT(traj.front(), traj.back());
}

TEST(WeightedSampledMixing, SameSurfaceAsUnweighted) {
  util::Rng rng{5};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(40, 110, rng)).graph;
  const auto g = gen::pareto_weights(base, 1.5, rng);
  const std::vector<graph::NodeId> sources{0, 1, 2};
  const auto sampled = measure_weighted_sampled_mixing(g, sources, 60);
  EXPECT_EQ(sampled.num_sources(), 3u);
  EXPECT_EQ(sampled.max_steps(), 60u);
  const auto curves = sampled.percentile_curves();
  EXPECT_LE(curves.top[59], curves.max[59] + 1e-12);
}

TEST(WeightedMixing, InteractionWeightsSlowCommunityGraphs) {
  // The Wilson-et-al effect: biasing weight into communities slows mixing
  // relative to the unit-weight friendship chain on identical topology.
  util::Rng rng{6};
  const auto base = gen::build_dataset(*gen::find_dataset("Physics 1"), 1560, 6);
  const auto friendship = gen::unit_weights(base);
  const auto interaction =
      gen::community_biased_weights(base, 260, /*strong=*/10.0, /*weak=*/0.5, 1.5, rng);

  const auto tvd_friend = weighted_tvd_trajectory(friendship, 0, 150).back();
  const auto tvd_interact = weighted_tvd_trajectory(interaction, 0, 150).back();
  EXPECT_GT(tvd_interact, tvd_friend);
}

TEST(WeightedEvolver, RejectsZeroStrengthVertex) {
  const auto g = graph::WeightedGraph::from_edges({{0, 1, 1.0}}, /*num_nodes=*/3);
  EXPECT_THROW(WeightedEvolver{g}, std::invalid_argument);
}

}  // namespace
}  // namespace socmix::markov
