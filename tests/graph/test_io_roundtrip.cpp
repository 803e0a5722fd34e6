// Randomized round-trip property tests for the I/O layer: any graph the
// generators can produce must survive text serialization topology-wise and
// the binary .smxg container bit-exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "gen/watts_strogatz.hpp"
#include "graph/io.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "util/rng.hpp"

namespace socmix::graph {
namespace {

void expect_isomorphic_by_ids(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "v=" << v;
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

class IoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] std::string smxg_path(const std::string& tag) const {
    return testing::TempDir() + "/io_roundtrip_" + std::to_string(GetParam()) + "_" +
           tag + ".smxg";
  }
  [[nodiscard]] Graph make() const {
    util::Rng rng{GetParam()};
    switch (GetParam() % 4) {
      case 0: return gen::erdos_renyi_gnm(80, 200, rng);
      case 1: return gen::barabasi_albert(80, 3, rng);
      case 2: return gen::watts_strogatz(80, 4, 0.3, rng);
      default: return gen::dumbbell(12, 3);
    }
  }
};

TEST_P(IoRoundTrip, TextPreservesTopology) {
  const Graph g = make();
  std::stringstream buffer;
  save_edge_list(g, buffer);
  const auto reloaded = load_edge_list(buffer);
  // Text round-trip preserves ids because save emits them in sorted order
  // and load densifies in first-appearance order — which coincides only if
  // every id appears; compare structure via degree sequence + edge count.
  ASSERT_EQ(reloaded.graph.num_edges(), g.num_edges());
  std::vector<NodeId> deg_a;
  std::vector<NodeId> deg_b;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) > 0) deg_a.push_back(g.degree(v));
  }
  for (NodeId v = 0; v < reloaded.graph.num_nodes(); ++v) {
    deg_b.push_back(reloaded.graph.degree(v));
  }
  std::sort(deg_a.begin(), deg_a.end());
  std::sort(deg_b.begin(), deg_b.end());
  EXPECT_EQ(deg_a, deg_b);
}

TEST_P(IoRoundTrip, BinaryPreservesEverything) {
  const Graph g = make();
  const std::string path = smxg_path("once");
  sharded::write_smxg_file(path, g, ShardPlan::balanced(g.offsets(), 3));
  {
    const sharded::MappedGraph reloaded{path};
    expect_isomorphic_by_ids(g, reloaded.view());
  }
  std::remove(path.c_str());
}

TEST_P(IoRoundTrip, DoubleRoundTripIsStable) {
  // Repacking a mapped view reproduces it: nothing is lost or reordered
  // on a second trip through the container.
  const Graph g = make();
  const std::string first = smxg_path("once");
  const std::string second = smxg_path("twice");
  sharded::write_smxg_file(first, g, ShardPlan::balanced(g.offsets(), 3));
  {
    const sharded::MappedGraph once{first};
    sharded::write_smxg_file(second, once.view(),
                             ShardPlan::balanced(once.view().offsets(), 3));
    const sharded::MappedGraph twice{second};
    expect_isomorphic_by_ids(once.view(), twice.view());
  }
  std::remove(first.c_str());
  std::remove(second.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTrip, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace socmix::graph
