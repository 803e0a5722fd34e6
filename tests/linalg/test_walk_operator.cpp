#include "linalg/walk_operator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "graph/components.hpp"
#include "linalg/dense.hpp"
#include "linalg/vector_ops.hpp"
#include "util/rng.hpp"

namespace socmix::linalg {
namespace {

TEST(WalkOperator, MatchesDenseMatrix) {
  util::Rng rng{3};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(40, 100, rng)).graph;
  const WalkOperator op{g};
  const auto dense = dense_walk_matrix(g);

  Vec x(op.dim());
  randomize_unit(x, rng);
  Vec y(op.dim());
  op.apply(x, y);

  for (std::size_t i = 0; i < op.dim(); ++i) {
    double expect = 0;
    for (std::size_t j = 0; j < op.dim(); ++j) expect += dense.at(i, j) * x[j];
    EXPECT_NEAR(y[i], expect, 1e-12);
  }
}

TEST(WalkOperator, IsSymmetricBilinearForm) {
  util::Rng rng{5};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(60, 150, rng)).graph;
  const WalkOperator op{g};
  Vec x(op.dim());
  Vec y(op.dim());
  randomize_unit(x, rng);
  randomize_unit(y, rng);
  Vec nx(op.dim());
  Vec ny(op.dim());
  op.apply(x, nx);
  op.apply(y, ny);
  EXPECT_NEAR(dot(y, nx), dot(x, ny), 1e-12);  // y^T N x == x^T N y
}

TEST(WalkOperator, TopEigenvectorIsFixedPoint) {
  util::Rng rng{7};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(50, 120, rng)).graph;
  const WalkOperator op{g};
  const auto v1 = op.top_eigenvector();
  EXPECT_NEAR(norm2(v1), 1.0, 1e-12);
  Vec out(op.dim());
  op.apply(v1, out);
  for (std::size_t i = 0; i < op.dim(); ++i) EXPECT_NEAR(out[i], v1[i], 1e-12);
}

TEST(WalkOperator, TopEigenvectorFixedUnderLaziness) {
  const auto g = gen::complete(6);
  const WalkOperator lazy{g, 0.3};
  const auto v1 = lazy.top_eigenvector();
  Vec out(lazy.dim());
  lazy.apply(v1, out);
  for (std::size_t i = 0; i < lazy.dim(); ++i) EXPECT_NEAR(out[i], v1[i], 1e-12);
}

TEST(WalkOperator, LazinessIsAffineCombination) {
  const auto g = gen::cycle(9);
  const WalkOperator plain{g, 0.0};
  const WalkOperator lazy{g, 0.4};
  util::Rng rng{11};
  Vec x(g.num_nodes());
  randomize_unit(x, rng);
  Vec a(g.num_nodes());
  Vec b(g.num_nodes());
  plain.apply(x, a);
  lazy.apply(x, b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(b[i], 0.6 * a[i] + 0.4 * x[i], 1e-12);
  }
}

TEST(WalkOperator, MapEigenvalue) {
  const auto g = gen::complete(4);
  const WalkOperator lazy{g, 0.5};
  EXPECT_DOUBLE_EQ(lazy.map_eigenvalue(1.0), 1.0);
  EXPECT_DOUBLE_EQ(lazy.map_eigenvalue(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(lazy.map_eigenvalue(0.2), 0.6);
}

TEST(WalkOperator, RejectsIsolatedVertices) {
  graph::EdgeList edges;
  edges.add(0, 1);
  edges.ensure_nodes(3);
  const auto g = graph::Graph::from_edges(std::move(edges));
  EXPECT_THROW(WalkOperator{g}, std::invalid_argument);
}

TEST(WalkOperator, RejectsBadLaziness) {
  const auto g = gen::complete(3);
  EXPECT_THROW((WalkOperator{g, -0.1}), std::invalid_argument);
  EXPECT_THROW((WalkOperator{g, 1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace socmix::linalg
