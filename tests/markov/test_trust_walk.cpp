#include "markov/trust_walk.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "graph/components.hpp"
#include "linalg/vector_ops.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/stationary.hpp"
#include "util/rng.hpp"

namespace socmix::markov {
namespace {

TEST(BiasedEvolver, PreservesProbabilityMass) {
  const auto g = gen::dumbbell(6, 2);
  BiasedEvolver evolver{g, 0, 0.2};
  std::vector<double> dist(g.num_nodes(), 0.0);
  dist[3] = 1.0;
  for (int t = 0; t < 30; ++t) {
    evolver.advance(dist, 1);
    EXPECT_TRUE(is_distribution(dist)) << "t=" << t;
  }
}

TEST(BiasedEvolver, ZeroBetaIsSimpleWalk) {
  util::Rng rng{1};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(40, 100, rng)).graph;
  BiasedEvolver biased{g, 0, 0.0};
  const auto a = walk_distribution(g, 5, 7);
  std::vector<double> b(g.num_nodes(), 0.0);
  b[5] = 1.0;
  biased.advance(b, 7);
  for (std::size_t v = 0; v < a.size(); ++v) EXPECT_NEAR(a[v], b[v], 1e-14);
}

TEST(BiasedEvolver, RejectsBadArguments) {
  const auto g = gen::complete(4);
  EXPECT_THROW((BiasedEvolver{g, 0, 1.0}), std::invalid_argument);
  EXPECT_THROW((BiasedEvolver{g, 0, -0.1}), std::invalid_argument);
  EXPECT_THROW((BiasedEvolver{g, 99, 0.5}), std::invalid_argument);
}

TEST(PersonalizedPagerank, IsDistributionAndFixedPoint) {
  util::Rng rng{2};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(50, 120, rng)).graph;
  const auto ppr = personalized_pagerank(g, 3, 0.15);
  EXPECT_TRUE(is_distribution(ppr, 1e-9));

  // Fixed point of the biased step.
  BiasedEvolver evolver{g, 3, 0.15};
  std::vector<double> next(ppr.size());
  evolver.step(ppr, next);
  for (std::size_t v = 0; v < ppr.size(); ++v) EXPECT_NEAR(next[v], ppr[v], 1e-10);
}

TEST(PersonalizedPagerank, ConcentratesNearOriginAsBetaGrows) {
  const auto g = gen::dumbbell(8, 1);
  const auto mild = personalized_pagerank(g, 0, 0.05);
  const auto strong = personalized_pagerank(g, 0, 0.6);
  EXPECT_GT(strong[0], mild[0]);
  EXPECT_GT(strong[0], 0.5);  // strong bias keeps most mass at home
}

TEST(PersonalizedPagerank, BetaBoundsEnforced) {
  const auto g = gen::complete(4);
  EXPECT_THROW(personalized_pagerank(g, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(personalized_pagerank(g, 0, 1.0), std::invalid_argument);
}

TEST(PersonalizedPagerank, KnownValueOnCompleteGraph) {
  // On K_n by symmetry: ppr(origin) = x, others (1-x)/(n-1) with
  // x = beta + (1-beta)(1-x)/(n-1)  =>  x = (beta(n-2)+1)/(n-1+(1-beta)).
  const graph::NodeId n = 6;
  const double beta = 0.3;
  const auto g = gen::complete(n);
  const auto ppr = personalized_pagerank(g, 0, beta);
  const double denom = (n - 1.0) + (1.0 - beta);
  const double x = (beta * (n - 2.0) + 1.0) / denom;
  EXPECT_NEAR(ppr[0], x, 1e-9);
  for (graph::NodeId v = 1; v < n; ++v) EXPECT_NEAR(ppr[v], (1.0 - x) / (n - 1.0), 1e-9);
}

TEST(TrustMixingFloor, ZeroAtNoBias) {
  const auto g = gen::complete(8);
  EXPECT_DOUBLE_EQ(trust_mixing_floor(g, 0, 0.0), 0.0);
}

TEST(TrustMixingFloor, MonotoneInBeta) {
  // The paper's trust story, quantified: stronger trust bias -> the walk
  // "mixes" into a smaller neighborhood -> larger floor against global pi.
  const auto g = gen::dumbbell(10, 2);
  double previous = 0.0;
  for (const double beta : {0.05, 0.2, 0.5, 0.8}) {
    const double floor = trust_mixing_floor(g, 0, beta);
    EXPECT_GT(floor, previous) << "beta=" << beta;
    previous = floor;
  }
}

TEST(TrustMixingFloor, LargerOnCommunityGraphs) {
  // At equal beta, a community-structured graph traps more of the biased
  // walk's mass than an expander of similar size.
  util::Rng rng{3};
  const auto expander =
      graph::largest_component(gen::erdos_renyi_gnm(40, 190, rng)).graph;
  const auto communities = gen::dumbbell(20, 1);  // also 40 nodes
  const double beta = 0.1;
  EXPECT_GT(trust_mixing_floor(communities, 0, beta),
            trust_mixing_floor(expander, 0, beta));
}

}  // namespace
}  // namespace socmix::markov
