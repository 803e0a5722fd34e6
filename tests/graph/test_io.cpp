#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"

namespace socmix::graph {
namespace {

TEST(LoadEdgeList, ParsesSnapFormat) {
  std::istringstream in{
      "# comment line\n"
      "% another comment\n"
      "0 1\n"
      "1\t2\n"
      "\n"
      "2 0\n"};
  const LoadResult result = load_edge_list(in);
  EXPECT_EQ(result.graph.num_nodes(), 3u);
  EXPECT_EQ(result.graph.num_edges(), 3u);
  EXPECT_EQ(result.edges_parsed, 3u);
}

TEST(LoadEdgeList, DensifiesSparseIds) {
  std::istringstream in{"1000000 5\n5 99\n"};
  const LoadResult result = load_edge_list(in);
  EXPECT_EQ(result.graph.num_nodes(), 3u);
  EXPECT_EQ(result.graph.num_edges(), 2u);
}

TEST(LoadEdgeList, SymmetrizesDirectedInput) {
  std::istringstream in{"0 1\n1 0\n"};
  const LoadResult result = load_edge_list(in);
  EXPECT_EQ(result.graph.num_edges(), 1u);
  EXPECT_EQ(result.duplicates_dropped, 1u);
}

TEST(LoadEdgeList, CountsDroppedSelfLoops) {
  std::istringstream in{"0 0\n0 1\n"};
  const LoadResult result = load_edge_list(in);
  EXPECT_EQ(result.self_loops_dropped, 1u);
  EXPECT_EQ(result.graph.num_edges(), 1u);
}

TEST(LoadEdgeList, ThrowsOnMalformedLine) {
  std::istringstream one_field{"0\n"};
  EXPECT_THROW(load_edge_list(one_field), std::runtime_error);
  std::istringstream non_numeric{"a b\n"};
  EXPECT_THROW(load_edge_list(non_numeric), std::runtime_error);
  std::istringstream negative{"-1 2\n"};
  EXPECT_THROW(load_edge_list(negative), std::runtime_error);
}

TEST(LoadEdgeList, ExtraColumnsIgnored) {
  std::istringstream in{"0 1 0.75 timestamp\n"};
  const LoadResult result = load_edge_list(in);
  EXPECT_EQ(result.graph.num_edges(), 1u);
}

TEST(EdgeListIo, TextRoundTrip) {
  EdgeList edges;
  edges.add(0, 1);
  edges.add(1, 2);
  edges.add(0, 3);
  const Graph g = Graph::from_edges(std::move(edges));

  std::stringstream buffer;
  save_edge_list(g, buffer);
  const LoadResult reloaded = load_edge_list(buffer);
  ASSERT_EQ(reloaded.graph.num_nodes(), g.num_nodes());
  ASSERT_EQ(reloaded.graph.num_edges(), g.num_edges());
}

TEST(LoadEdgeList, LenientModeSkipsAndCountsGarbageLines) {
  std::istringstream in{
      "0 1\n"
      "garbage line\n"
      "1 2\n"
      "-3 4\n"
      "2 0\n"};
  EdgeListOptions options;
  options.lenient = true;
  const LoadResult result = load_edge_list(in, options);
  EXPECT_EQ(result.graph.num_edges(), 3u);
  EXPECT_EQ(result.malformed_lines, 2u);
}

TEST(LoadEdgeList, LenientModeCapsTolerance) {
  std::string text;
  for (int i = 0; i < 5; ++i) text += "not an edge\n";
  text += "0 1\n";
  std::istringstream in{text};
  EdgeListOptions options;
  options.lenient = true;
  options.max_malformed = 3;
  EXPECT_THROW(load_edge_list(in, options), std::runtime_error);
}

TEST(LoadEdgeList, LenientModeStillRejectsAllGarbageInput) {
  std::istringstream in{"alpha beta?\ngamma\n"};
  EdgeListOptions options;
  options.lenient = true;
  EXPECT_THROW(load_edge_list(in, options), std::runtime_error);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(load_edge_list_file("/nonexistent/file.txt"), std::runtime_error);
}

TEST(FileIo, BinaryFileRoundTrip) {
  // The binary container is .smxg: a written file loads back to the graph.
  EdgeList edges;
  edges.add(0, 1);
  edges.add(1, 2);
  const Graph g = Graph::from_edges(std::move(edges));
  const std::string path = testing::TempDir() + "/socmix_io_test.smxg";
  sharded::write_smxg_file(path, g);
  {
    const sharded::MappedGraph mapped{path};
    EXPECT_EQ(mapped.view().num_edges(), 2u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace socmix::graph
