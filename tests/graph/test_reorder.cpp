// The pack-time ordering's correctness contract (graph_pack --reorder
// rcm): the RCM and shuffle permutations are deterministic bijections,
// apply_permutation preserves all Graph invariants and round-trips
// bit-exactly through the inverse, RCM actually improves label locality
// on crawl-ordered ids, and the relabeled graph it stores has the same
// SLEM as the graph it came from.
#include "graph/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/walk_operator.hpp"
#include "markov/mixing_time.hpp"

namespace socmix::graph {
namespace {

Graph community_graph() {
  const auto spec = gen::find_dataset("Livejournal A");
  return gen::build_dataset(*spec, 600, 7);
}

Graph path_graph(NodeId n) {
  EdgeList edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.add(v, v + 1);
  return Graph::from_edges(std::move(edges));
}

/// The arbitrary vertex ids of a real edge-list crawl.
Graph crawl_ordered(const Graph& g) {
  return apply_permutation(g, shuffle_permutation(g.num_nodes(), 5));
}

void expect_same_csr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto ao = a.offsets();
  const auto bo = b.offsets();
  ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()));
  const auto an = a.raw_neighbors();
  const auto bn = b.raw_neighbors();
  EXPECT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()));
}

/// Every permutation the library builds: the RCM ordering graph_pack
/// stores, and the crawl-order shuffle benches and tests start from.
std::vector<std::vector<NodeId>> every_permutation(const Graph& g) {
  return {rcm_permutation(g), shuffle_permutation(g.num_nodes(), 5)};
}

TEST(Reorder, EveryModeProducesADeterministicBijection) {
  const Graph g = community_graph();
  const auto first = every_permutation(g);
  for (const auto& perm : first) {
    ASSERT_EQ(perm.size(), g.num_nodes());
    std::vector<bool> seen(perm.size(), false);
    for (const NodeId p : perm) {
      ASSERT_LT(p, perm.size());
      ASSERT_FALSE(seen[p]) << "duplicate target";
      seen[p] = true;
    }
  }
  // Deterministic: a second computation is identical.
  EXPECT_EQ(first, every_permutation(g));
}

TEST(Reorder, ApplyPermutationKeepsInvariantsAndRoundTrips) {
  const Graph g = community_graph();
  for (const auto& perm : every_permutation(g)) {
    const Graph relabeled = apply_permutation(g, perm);
    ASSERT_EQ(relabeled.num_nodes(), g.num_nodes());
    ASSERT_EQ(relabeled.num_edges(), g.num_edges());
    // Adjacency stays sorted strictly ascending (sorted, no dupes, no
    // self-loops) — the invariant every kernel assumes.
    for (NodeId v = 0; v < relabeled.num_nodes(); ++v) {
      const auto adj = relabeled.neighbors(v);
      for (std::size_t i = 0; i + 1 < adj.size(); ++i) {
        ASSERT_LT(adj[i], adj[i + 1]);
      }
      for (const NodeId u : adj) ASSERT_NE(u, v);
    }
    // Degrees carry over through the relabeling.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(relabeled.degree(perm[v]), g.degree(v));
    }
    // perm then inverse lands on a bit-identical CSR.
    const Graph back = apply_permutation(relabeled, invert_permutation(perm));
    expect_same_csr(back, g);
  }
}

TEST(Reorder, InvertPermutationRejectsNonBijections) {
  EXPECT_THROW((void)invert_permutation(std::vector<NodeId>{0, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)invert_permutation(std::vector<NodeId>{0, 5}),
               std::invalid_argument);
}

TEST(Reorder, RcmRecoversUnitBandwidthOnAShuffledPath) {
  // A path has bandwidth 1 under its natural order; shuffle destroys that
  // and RCM must recover it exactly (the path is the textbook case).
  const Graph path = path_graph(64);
  const Graph shuffled = apply_permutation(path, shuffle_permutation(64, 99));
  EXPECT_GT(locality_stats(shuffled).bandwidth, 1u);
  const Graph rcm = apply_permutation(shuffled, rcm_permutation(shuffled));
  EXPECT_EQ(locality_stats(rcm).bandwidth, 1u);
}

TEST(Reorder, RcmImprovesLocalityOnShuffledCommunityGraph) {
  const Graph crawl = crawl_ordered(community_graph());
  const LocalityStats before = locality_stats(crawl);
  const Graph rcm = apply_permutation(crawl, rcm_permutation(crawl));
  const LocalityStats after = locality_stats(rcm);
  EXPECT_LT(after.bandwidth, before.bandwidth);
  EXPECT_LT(after.avg_neighbor_distance, before.avg_neighbor_distance);
}

TEST(ReorderParity, SlemMatchesIdentityOrderingWithinLanczosTolerance) {
  // Eigenvalues are invariant under the similarity transform a relabeling
  // induces; only the iteration's rounding differs. So the RCM pack of a
  // crawl-ordered graph measures the graph's own SLEM.
  for (const char* name : {"Physics 1", "Livejournal A", "Facebook"}) {
    const auto spec = gen::find_dataset(name);
    const Graph g = gen::build_dataset(*spec, 400, 17);
    const linalg::LanczosOptions options;
    const auto identity = linalg::slem_spectrum(linalg::WalkOperator{g}, options);
    ASSERT_TRUE(identity.converged) << name;
    const Graph crawl = crawl_ordered(g);
    const Graph rcm = apply_permutation(crawl, rcm_permutation(crawl));
    EXPECT_LT(locality_stats(rcm).avg_neighbor_distance,
              locality_stats(crawl).avg_neighbor_distance)
        << name;
    const auto spectrum = linalg::slem_spectrum(linalg::WalkOperator{rcm}, options);
    ASSERT_TRUE(spectrum.converged) << name;
    EXPECT_NEAR(spectrum.slem, identity.slem, 100 * options.tolerance) << name;
  }
}

}  // namespace
}  // namespace socmix::graph
