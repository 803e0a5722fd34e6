#include "gen/erdos_renyi.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/components.hpp"

namespace socmix::gen {
namespace {

TEST(ErdosRenyiGnm, ExactEdgeCount) {
  util::Rng rng{1};
  const auto g = erdos_renyi_gnm(100, 250, rng);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 250u);
}

TEST(ErdosRenyiGnm, MaximumDensity) {
  util::Rng rng{2};
  const auto g = erdos_renyi_gnm(10, 45, rng);  // complete
  EXPECT_EQ(g.num_edges(), 45u);
  for (graph::NodeId v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 9u);
}

TEST(ErdosRenyiGnm, RejectsOverfull) {
  util::Rng rng{3};
  EXPECT_THROW(erdos_renyi_gnm(10, 46, rng), std::invalid_argument);
  EXPECT_THROW(erdos_renyi_gnm(1, 0, rng), std::invalid_argument);
}

TEST(ErdosRenyiGnm, DeterministicPerSeed) {
  util::Rng a{5};
  util::Rng b{5};
  const auto g1 = erdos_renyi_gnm(50, 100, a);
  const auto g2 = erdos_renyi_gnm(50, 100, b);
  for (graph::NodeId v = 0; v < 50; ++v) EXPECT_EQ(g1.degree(v), g2.degree(v));
}

TEST(ErdosRenyiGnp, EdgeCountNearExpectation) {
  util::Rng rng{7};
  const double p = 0.05;
  const auto g = erdos_renyi_gnp(200, p, rng);
  const double expected = p * 200 * 199 / 2;  // 995
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 5 * std::sqrt(expected));
}

TEST(ErdosRenyiGnp, ExtremeProbabilities) {
  util::Rng rng{8};
  EXPECT_EQ(erdos_renyi_gnp(20, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi_gnp(20, 1.0, rng).num_edges(), 190u);
}

TEST(ErdosRenyiGnp, RejectsBadArguments) {
  util::Rng rng{9};
  EXPECT_THROW(erdos_renyi_gnp(1, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(erdos_renyi_gnp(10, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(erdos_renyi_gnp(10, 1.1, rng), std::invalid_argument);
}

TEST(ErdosRenyiGnp, NoSelfLoopsNoDuplicates) {
  util::Rng rng{10};
  const auto g = erdos_renyi_gnp(100, 0.1, rng);
  for (graph::NodeId v = 0; v < 100; ++v) {
    const auto adj = g.neighbors(v);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      EXPECT_NE(adj[i], v);
      if (i > 0) {
        EXPECT_LT(adj[i - 1], adj[i]);
      }
    }
  }
}

TEST(ErdosRenyi, SuperCriticalIsMostlyConnected) {
  // Above p = ln n / n the graph is connected w.h.p.
  util::Rng rng{11};
  const auto g = erdos_renyi_gnp(500, 0.03, rng);
  const auto lcc = graph::largest_component(g);
  EXPECT_GT(lcc.graph.num_nodes(), 495u);
}

}  // namespace
}  // namespace socmix::gen
