#include "graph/components.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "util/rng.hpp"

namespace socmix::graph {
namespace {

Graph two_triangles_and_isolated() {
  // Components: {0,1,2}, {3,4,5,6}, {7} (isolated).
  EdgeList edges;
  edges.add(0, 1);
  edges.add(1, 2);
  edges.add(0, 2);
  edges.add(3, 4);
  edges.add(4, 5);
  edges.add(5, 6);
  edges.add(3, 6);
  edges.ensure_nodes(8);
  return Graph::from_edges(std::move(edges));
}

TEST(Components, LabelsAllComponents) {
  const Graph g = two_triangles_and_isolated();
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.count(), 3u);
  EXPECT_EQ(comps.component[0], comps.component[1]);
  EXPECT_EQ(comps.component[0], comps.component[2]);
  EXPECT_EQ(comps.component[3], comps.component[6]);
  EXPECT_NE(comps.component[0], comps.component[3]);
  EXPECT_NE(comps.component[7], comps.component[0]);
  EXPECT_NE(comps.component[7], comps.component[3]);
}

TEST(Components, SizesAreCorrect) {
  const Components comps = connected_components(two_triangles_and_isolated());
  std::vector<NodeId> sizes{comps.sizes};
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<NodeId>{1, 3, 4}));
}

TEST(Components, LargestPicksBiggest) {
  const Components comps = connected_components(two_triangles_and_isolated());
  EXPECT_EQ(comps.sizes[comps.largest()], 4u);
}

TEST(Components, EmptyGraphHasNone) {
  const Components comps = connected_components(Graph{});
  EXPECT_EQ(comps.count(), 0u);
  EXPECT_EQ(comps.largest(), kInvalidNode);
}

TEST(LargestComponent, ExtractsAndRelabels) {
  const auto extracted = largest_component(two_triangles_and_isolated());
  EXPECT_EQ(extracted.graph.num_nodes(), 4u);
  EXPECT_EQ(extracted.graph.num_edges(), 4u);
  // original_id maps back to {3,4,5,6}.
  std::vector<NodeId> original{extracted.original_id};
  std::sort(original.begin(), original.end());
  EXPECT_EQ(original, (std::vector<NodeId>{3, 4, 5, 6}));
  EXPECT_TRUE(is_connected(extracted.graph));
}

TEST(LargestComponent, ConnectedGraphUnchangedInSize) {
  const Graph g = gen::cycle(10);
  const auto extracted = largest_component(g);
  EXPECT_EQ(extracted.graph.num_nodes(), 10u);
  EXPECT_EQ(extracted.graph.num_edges(), 10u);
}

TEST(LargestComponent, ConnectedGraphComesBackAsItIsWithIdentityLabels) {
  // A connected random graph: the shortcut must give exactly what the
  // induced subgraph on every vertex gives, from a const graph, an rvalue
  // and a borrowed view (whose result must own its storage).
  util::Rng rng{5};
  const Graph g = gen::erdos_renyi_gnm(300, 3000, rng);
  ASSERT_TRUE(is_connected(g));
  std::vector<NodeId> all(g.num_nodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  const ExtractedSubgraph want = induced_subgraph(g, all);
  const auto same = [&want](const ExtractedSubgraph& got) {
    const auto offsets = got.graph.offsets();
    const auto nbrs = got.graph.raw_neighbors();
    return got.original_id == want.original_id &&
           std::equal(offsets.begin(), offsets.end(), want.graph.offsets().begin(),
                      want.graph.offsets().end()) &&
           std::equal(nbrs.begin(), nbrs.end(), want.graph.raw_neighbors().begin(),
                      want.graph.raw_neighbors().end());
  };
  EXPECT_TRUE(same(largest_component(g)));
  EXPECT_TRUE(same(largest_component(Graph{g})));
  const ExtractedSubgraph from_view =
      largest_component(Graph::borrowed(g.offsets(), g.raw_neighbors()));
  EXPECT_TRUE(same(from_view));
  EXPECT_TRUE(from_view.graph.owns_storage());
}

TEST(IsConnected, Basics) {
  EXPECT_TRUE(is_connected(gen::complete(5)));
  EXPECT_FALSE(is_connected(two_triangles_and_isolated()));
  EXPECT_FALSE(is_connected(Graph{}));
}

}  // namespace
}  // namespace socmix::graph
