#include "graph/edge_list.hpp"

#include <gtest/gtest.h>

namespace socmix::graph {
namespace {

TEST(EdgeList, AddExpandsNodeCount) {
  EdgeList edges;
  EXPECT_EQ(edges.num_nodes(), 0u);
  edges.add(0, 5);
  EXPECT_EQ(edges.num_nodes(), 6u);
  edges.add(9, 2);
  EXPECT_EQ(edges.num_nodes(), 10u);
  EXPECT_EQ(edges.size(), 2u);
}

TEST(EdgeList, EnsureNodesDeclaresIsolatedVertices) {
  EdgeList edges;
  edges.add(0, 1);
  edges.ensure_nodes(10);
  EXPECT_EQ(edges.num_nodes(), 10u);
  edges.ensure_nodes(5);  // never shrinks
  EXPECT_EQ(edges.num_nodes(), 10u);
}

TEST(EdgeList, ConstructorPresetsNodeCount) {
  const EdgeList edges{7};
  EXPECT_EQ(edges.num_nodes(), 7u);
  EXPECT_TRUE(edges.empty());
}

TEST(EdgeList, EdgeOrderingOperator) {
  EXPECT_LT((Edge{0, 1}), (Edge{0, 2}));
  EXPECT_LT((Edge{0, 9}), (Edge{1, 0}));
  EXPECT_EQ((Edge{2, 3}), (Edge{2, 3}));
}

}  // namespace
}  // namespace socmix::graph
