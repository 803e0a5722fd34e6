#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

TEST(ParseEdgeLine, ClassifiesEveryLineKind) {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  EXPECT_EQ(parse_edge_line("", u, v), EdgeLine::kSkip);
  EXPECT_EQ(parse_edge_line(" \t\r", u, v), EdgeLine::kSkip);
  EXPECT_EQ(parse_edge_line("  # 1 2", u, v), EdgeLine::kSkip);
  EXPECT_EQ(parse_edge_line("% 1 2", u, v), EdgeLine::kSkip);
  EXPECT_EQ(parse_edge_line("7", u, v), EdgeLine::kTooFewFields);
  EXPECT_EQ(parse_edge_line(" 7 \r", u, v), EdgeLine::kTooFewFields);
  EXPECT_EQ(parse_edge_line("7 x", u, v), EdgeLine::kBadId);
  EXPECT_EQ(parse_edge_line("7x 8", u, v), EdgeLine::kBadId);
  EXPECT_EQ(parse_edge_line("-1 8", u, v), EdgeLine::kBadId);
  EXPECT_EQ(parse_edge_line("+1 8", u, v), EdgeLine::kBadId);
  EXPECT_EQ(parse_edge_line("9223372036854775808 1", u, v), EdgeLine::kBadId);
  ASSERT_EQ(parse_edge_line("\t9223372036854775807\v-0  trailing junk\r", u, v),
            EdgeLine::kEdge);
  EXPECT_EQ(u, 9223372036854775807u);
  EXPECT_EQ(v, 0u);
}

TEST(IdDensifier, LabelsInFirstAppearanceOrderAcrossGrowth) {
  // Far more ids than the initial table holds, near 2^62 and strided so
  // they share low bits; every id is asked for again after the growth.
  constexpr std::uint64_t kBase = std::uint64_t{1} << 62;
  constexpr NodeId kIds = 5000;
  IdDensifier densify;
  for (NodeId i = 0; i < kIds; ++i) {
    ASSERT_EQ(densify(kBase + std::uint64_t{i} * 4096), i);
    ASSERT_EQ(densify(kBase), 0u);
  }
  EXPECT_EQ(densify.size(), kIds);
  for (NodeId i = kIds; i-- > 0;) ASSERT_EQ(densify(kBase + std::uint64_t{i} * 4096), i);
  EXPECT_EQ(densify.size(), kIds);
}

TEST(LoadEdgeList, BothLoadersLabelHugeAndRepeatedIdsIdentically) {
  constexpr std::uint64_t kBig = std::uint64_t{1} << 62;
  const auto id = [](std::uint64_t raw) { return std::to_string(raw); };
  // Repeated ids, a self loop that claims a label, a duplicate in both
  // directions, the largest int64 and extra columns.
  const std::string text =
      "# huge ids\n" + id(kBig + 7) + " " + id(kBig) + "\n" +  // 0 1
      id(kBig) + "\t3\n" +                                      // 1 2
      "3 " + id(kBig + 7) + "\n" +                               // 2 0
      id(kBig + 1) + " " + id(kBig + 1) + "\n\n" +               // 3 3: self loop
      id(kBig + 2) + " " + id(kBig + 1) + " 0.5\n" +             // 4 3
      id(kBig) + " " + id(kBig + 7) + "\n" +                     // 1 0: duplicate
      "9223372036854775807 3\n" +                                // 5 2
      id(kBig + 2) + " " + id(kBig) + "\n";                      // 4 1
  const std::string path = testing::TempDir() + "/socmix_io_huge_ids.txt";
  {
    std::ofstream out{path};
    out << text;
  }
  const Graph in_memory = load_edge_list_file(path).graph;
  const Graph two_pass = load_edge_list_file_two_pass(path);
  std::remove(path.c_str());

  // First-appearance labels: kBig+7 -> 0, kBig -> 1, 3 -> 2, kBig+1 -> 3,
  // kBig+2 -> 4, 2^63-1 -> 5.
  ASSERT_EQ(in_memory.num_nodes(), 6u);
  EXPECT_EQ(in_memory.num_edges(), 6u);
  const auto row = [&in_memory](NodeId v) {
    const auto nbrs = in_memory.neighbors(v);
    return std::vector<NodeId>(nbrs.begin(), nbrs.end());
  };
  EXPECT_EQ(row(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(row(1), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(row(3), (std::vector<NodeId>{4}));
  EXPECT_EQ(row(5), (std::vector<NodeId>{2}));

  ASSERT_EQ(two_pass.num_nodes(), in_memory.num_nodes());
  EXPECT_TRUE(std::equal(in_memory.offsets().begin(), in_memory.offsets().end(),
                         two_pass.offsets().begin(), two_pass.offsets().end()));
  const auto nbrs = in_memory.raw_neighbors();
  const auto two_pass_nbrs = two_pass.raw_neighbors();
  EXPECT_TRUE(
      std::equal(nbrs.begin(), nbrs.end(), two_pass_nbrs.begin(), two_pass_nbrs.end()));
}

TEST(LoadEdgeList, TwoPassLoaderRejectsMalformedLines) {
  const std::string path = testing::TempDir() + "/socmix_io_two_pass_bad.txt";
  for (const char* text : {"0 1\n2\n", "0 1\n1 x\n", "0 1\n-1 2\n"}) {
    {
      std::ofstream out{path};
      out << text;
    }
    EXPECT_THROW((void)load_edge_list_file_two_pass(path), std::runtime_error) << text;
  }
  std::remove(path.c_str());
  EXPECT_THROW((void)load_edge_list_file_two_pass(path), std::runtime_error);
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
