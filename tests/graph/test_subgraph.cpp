#include "graph/subgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "util/rng.hpp"

namespace socmix::graph {
namespace {

TEST(InducedSubgraph, KeepsOnlyInternalEdges) {
  const Graph g = gen::complete(5);
  const std::vector<NodeId> members{0, 2, 4};
  const auto sub = induced_subgraph(g, members);
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);  // triangle among any 3 of K5
}

TEST(InducedSubgraph, RelabelsInMemberOrder) {
  const Graph g = gen::path(5);  // 0-1-2-3-4
  const std::vector<NodeId> members{3, 2, 4};
  const auto sub = induced_subgraph(g, members);
  // New ids: 3->0, 2->1, 4->2. Edges: (3,2) -> (0,1); (3,4) -> (0,2).
  EXPECT_EQ(sub.original_id, members);
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
  EXPECT_TRUE(sub.graph.has_edge(0, 2));
  EXPECT_FALSE(sub.graph.has_edge(1, 2));
}

TEST(InducedSubgraph, EmptyMemberList) {
  const Graph g = gen::complete(4);
  const auto sub = induced_subgraph(g, std::vector<NodeId>{});
  EXPECT_EQ(sub.graph.num_nodes(), 0u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
}

TEST(InducedSubgraph, SingleVertex) {
  const Graph g = gen::complete(4);
  const auto sub = induced_subgraph(g, std::vector<NodeId>{2});
  EXPECT_EQ(sub.graph.num_nodes(), 1u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
  EXPECT_EQ(sub.original_id[0], 2u);
}

TEST(InducedSubgraph, AllVerticesReproducesGraph) {
  const Graph g = gen::cycle(8);
  std::vector<NodeId> all(8);
  for (NodeId v = 0; v < 8; ++v) all[v] = v;
  const auto sub = induced_subgraph(g, all);
  EXPECT_EQ(sub.graph.num_edges(), g.num_edges());
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(sub.graph.degree(v), g.degree(v));
}

TEST(InducedSubgraph, AscendingMembersKeepEveryEdgeInSortedRows) {
  // Ascending members skip the per-row sort: each row must still be sorted
  // and hold exactly the members' edges.
  util::Rng rng{9};
  const Graph g = gen::erdos_renyi_gnm(200, 1500, rng);
  std::vector<NodeId> members;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v % 3 != 1) members.push_back(v);
  }
  const auto sub = induced_subgraph(g, members);
  ASSERT_EQ(sub.graph.num_nodes(), members.size());
  for (NodeId a = 0; a < sub.graph.num_nodes(); ++a) {
    const auto adj = sub.graph.neighbors(a);
    EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
    for (NodeId b = 0; b < sub.graph.num_nodes(); ++b) {
      EXPECT_EQ(sub.graph.has_edge(a, b), g.has_edge(members[a], members[b]));
    }
  }
}

TEST(InducedSubgraph, NeighborListsStaySorted) {
  const Graph g = gen::complete(6);
  const std::vector<NodeId> members{5, 0, 3, 1};
  const auto sub = induced_subgraph(g, members);
  for (NodeId v = 0; v < sub.graph.num_nodes(); ++v) {
    const auto adj = sub.graph.neighbors(v);
    EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
  }
}

}  // namespace
}  // namespace socmix::graph
