// Single-source exact evolution through the walk engine: a one-lane
// BatchedEvolver, walk_distribution and tvd_trajectory.
#include "markov/batched_evolver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "graph/components.hpp"
#include "linalg/dense.hpp"
#include "linalg/vector_ops.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "util/rng.hpp"

namespace socmix::markov {
namespace {

TEST(Evolution, StepPreservesDistribution) {
  util::Rng rng{1};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(60, 150, rng)).graph;
  BatchedEvolver evolver{g, 0.0, 1};
  const graph::NodeId seed[] = {0};
  evolver.seed_point_masses(seed);
  std::vector<double> dist(evolver.dim());
  for (int t = 0; t < 20; ++t) {
    evolver.step();
    evolver.copy_distribution(0, dist);
    EXPECT_TRUE(is_distribution(dist)) << "t=" << t;
  }
}

TEST(Evolution, MatchesDenseMatrixPower) {
  util::Rng rng{2};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(30, 70, rng)).graph;
  const std::size_t n = g.num_nodes();
  const auto p = linalg::dense_transition_matrix(g);

  // Dense: x P^5 starting from e_0.
  std::vector<double> x(n, 0.0);
  x[0] = 1.0;
  for (int t = 0; t < 5; ++t) {
    std::vector<double> next(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) next[j] += x[i] * p[i * n + j];
    x = next;
  }

  const auto dist = walk_distribution(g, 0, 5);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(dist[i], x[i], 1e-12);
}

TEST(Evolution, CompleteGraphOneStep) {
  // From a point mass on K_n, one step gives uniform over the other n-1.
  const auto g = gen::complete(5);
  const auto dist = walk_distribution(g, 2, 1);
  EXPECT_DOUBLE_EQ(dist[2], 0.0);
  for (const graph::NodeId v : {0u, 1u, 3u, 4u}) EXPECT_DOUBLE_EQ(dist[v], 0.25);
}

TEST(Evolution, StationaryIsFixedPoint) {
  util::Rng rng{3};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(50, 120, rng)).graph;
  const auto pi = stationary_distribution(g);
  // pi P^10 = pi, evaluated by linearity over full blocks of point masses:
  // sum_v pi_v (e_v P^10) must give pi back.
  const std::vector<graph::NodeId> sources = all_sources(g);
  BatchedEvolver evolver{g, 0.0, BatchedEvolver::kMaxBlock};
  std::vector<double> evolved(pi.size(), 0.0);
  std::vector<double> lane(pi.size());
  for (std::size_t first = 0; first < sources.size(); first += evolver.block()) {
    const std::size_t lanes = std::min(evolver.block(), sources.size() - first);
    evolver.seed_point_masses(std::span{sources}.subspan(first, lanes));
    for (int t = 0; t < 10; ++t) evolver.step();
    for (std::size_t b = 0; b < lanes; ++b) {
      evolver.copy_distribution(b, lane);
      for (std::size_t v = 0; v < lane.size(); ++v) evolved[v] += pi[first + b] * lane[v];
    }
  }
  for (std::size_t i = 0; i < pi.size(); ++i) EXPECT_NEAR(evolved[i], pi[i], 1e-12);
}

TEST(Evolution, TvdTrajectoryDecreasesOnAperiodicGraph) {
  const auto g = gen::complete(20);
  const auto pi = stationary_distribution(g);
  const auto traj = tvd_trajectory(g, 0, 30, pi);
  ASSERT_EQ(traj.size(), 30u);
  // Complete graphs mix essentially immediately.
  EXPECT_LT(traj[5], 1e-5);
  // Monotone decay (up to numerical noise) for this chain.
  for (std::size_t t = 1; t < traj.size(); ++t) EXPECT_LE(traj[t], traj[t - 1] + 1e-12);
}

TEST(Evolution, PeriodicChainNeverMixes) {
  // Star graph: a point mass on a leaf oscillates leaf <-> hub forever.
  const auto g = gen::star(10);
  const auto pi = stationary_distribution(g);
  const auto traj = tvd_trajectory(g, 1, 50, pi);
  EXPECT_GT(traj.back(), 0.3);  // stays far from pi
}

TEST(Evolution, LazyWalkMixesPeriodicChain) {
  const auto g = gen::star(10);
  const auto pi = stationary_distribution(g);
  const auto traj = tvd_trajectory(g, 1, 100, pi, /*laziness=*/0.5);
  EXPECT_LT(traj.back(), 1e-6);
}

TEST(Evolution, RejectsIsolatedVertex) {
  graph::EdgeList edges;
  edges.add(0, 1);
  edges.ensure_nodes(3);
  const auto g = graph::Graph::from_edges(std::move(edges));
  EXPECT_THROW(BatchedEvolver{g}, std::invalid_argument);
}

TEST(Evolution, DumbbellMixesSlowerThanComplete) {
  // The paper's core qualitative fact: community structure slows mixing.
  const auto fast = gen::complete(40);
  const auto slow = gen::dumbbell(20, 1);  // same vertex count
  const auto pi_fast = stationary_distribution(fast);
  const auto pi_slow = stationary_distribution(slow);
  const auto traj_fast = tvd_trajectory(fast, 0, 50, pi_fast);
  const auto traj_slow = tvd_trajectory(slow, 0, 50, pi_slow);
  EXPECT_LT(traj_fast[20], traj_slow[20]);
  EXPECT_GT(traj_slow[20], 0.1);
}

}  // namespace
}  // namespace socmix::markov
