#include "linalg/weighted_operator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "gen/weights.hpp"
#include "graph/components.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/vector_ops.hpp"
#include "util/rng.hpp"

namespace socmix::linalg {
namespace {

TEST(WeightedWalkOperator, UnitWeightsMatchUnweighted) {
  util::Rng rng{1};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(50, 150, rng)).graph;
  const auto weighted = gen::unit_weights(base);

  const WalkOperator plain{base};
  const WeightedWalkOperator lifted{weighted};

  Vec x(base.num_nodes());
  randomize_unit(x, rng);
  Vec a(x.size());
  Vec b(x.size());
  plain.apply(x, a);
  lifted.apply(x, b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-13);
}

TEST(WeightedWalkOperator, UnitWeightsSameSpectrum) {
  util::Rng rng{2};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(60, 180, rng)).graph;
  const auto plain = slem_spectrum(WalkOperator{base});
  const auto weighted = slem_spectrum(WeightedWalkOperator{gen::unit_weights(base)});
  EXPECT_NEAR(plain.slem, weighted.slem, 1e-7);
  EXPECT_NEAR(plain.lambda2, weighted.lambda2, 1e-7);
}

TEST(WeightedWalkOperator, IsSymmetricBilinearForm) {
  util::Rng rng{3};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(40, 120, rng)).graph;
  const auto g = gen::pareto_weights(base, 1.5, rng);
  const WeightedWalkOperator op{g};
  Vec x(op.dim());
  Vec y(op.dim());
  randomize_unit(x, rng);
  randomize_unit(y, rng);
  Vec nx(op.dim());
  Vec ny(op.dim());
  op.apply(x, nx);
  op.apply(y, ny);
  EXPECT_NEAR(dot(y, nx), dot(x, ny), 1e-12);
}

TEST(WeightedWalkOperator, TopEigenvectorIsFixedPoint) {
  util::Rng rng{4};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(40, 120, rng)).graph;
  const auto g = gen::pareto_weights(base, 2.0, rng);
  const WeightedWalkOperator op{g};
  const auto v1 = op.top_eigenvector();
  EXPECT_NEAR(norm2(v1), 1.0, 1e-12);
  Vec out(op.dim());
  op.apply(v1, out);
  for (std::size_t i = 0; i < op.dim(); ++i) EXPECT_NEAR(out[i], v1[i], 1e-12);
}

TEST(WeightedWalkOperator, TwoNodeChainClosedForm) {
  // Any single weighted edge: P = [[0,1],[1,0]] regardless of the weight;
  // spectrum {1, -1}.
  const auto g = graph::WeightedGraph::from_edges({{0, 1, 7.5}});
  const auto spectrum = slem_spectrum(WeightedWalkOperator{g});
  EXPECT_NEAR(spectrum.slem, 1.0, 1e-9);
  EXPECT_NEAR(spectrum.lambda_min, -1.0, 1e-9);
}

TEST(WeightedWalkOperator, WeightedTriangleClosedForm) {
  // Triangle with weights a=w(0,1), b=w(1,2), c=w(0,2): lambda_1 = 1 and
  // the other two come from the characteristic polynomial; check the trace
  // identity sum(lambda) = trace(P) = 0 instead of hand-solving.
  const auto g =
      graph::WeightedGraph::from_edges({{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 4.0}});
  const auto spectrum = slem_spectrum(WeightedWalkOperator{g});
  // trace(P) = 0 => lambda2 + lambda_min = -1.
  EXPECT_NEAR(spectrum.lambda2 + spectrum.lambda_min, -1.0, 1e-9);
  EXPECT_GT(spectrum.slem, 0.0);
  EXPECT_LT(spectrum.slem, 1.0);
}

TEST(WeightedWalkOperator, DownweightedBridgeSlowsMixing) {
  // A dumbbell whose bridge is weak mixes slower than one whose bridge is
  // strong — the interaction-graph mechanism in one line.
  const auto base = gen::dumbbell(10, 1);
  std::vector<graph::WeightedEdge> strong_edges;
  std::vector<graph::WeightedEdge> weak_edges;
  for (graph::NodeId u = 0; u < base.num_nodes(); ++u) {
    for (const graph::NodeId v : base.neighbors(u)) {
      if (u >= v) continue;
      const bool is_bridge = (u < 10) != (v < 10);
      strong_edges.push_back({u, v, is_bridge ? 10.0 : 1.0});
      weak_edges.push_back({u, v, is_bridge ? 0.1 : 1.0});
    }
  }
  const auto mu_strong = slem_spectrum(WeightedWalkOperator{
                             graph::WeightedGraph::from_edges(strong_edges)})
                             .slem;
  const auto mu_weak = slem_spectrum(WeightedWalkOperator{
                           graph::WeightedGraph::from_edges(weak_edges)})
                           .slem;
  EXPECT_GT(mu_weak, mu_strong);
}

TEST(WeightedWalkOperator, RejectsIsolatedAndBadLaziness) {
  const auto g = graph::WeightedGraph::from_edges({{0, 1, 1.0}}, /*num_nodes=*/3);
  EXPECT_THROW(WeightedWalkOperator{g}, std::invalid_argument);
  const auto ok = graph::WeightedGraph::from_edges({{0, 1, 1.0}});
  EXPECT_THROW((WeightedWalkOperator{ok, 1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace socmix::linalg
