// The route-hop kernel (linalg::simd KernelTable::route_hops) against the
// protocol reference (RouteTable::next_out_index), on every kernel tier:
//
//  * one hop level is BIT-IDENTICAL across tiers and equals the per-route
//    reference — on heads of degree 1..5, 2^k - 1, 2^k and 2^k + 1 up to a
//    star hub of degree 2^17 + 1, at route counts 1, 7, 8, 9 and r (the
//    vector tier's partial groups, exact groups and lane refill), and on
//    random hop levels and walked chains of every Table-1 config;
//  * RouteTable::for_each_tail, which calls the kernel once per hop level,
//    equals per-instance route_tail at every length under each tier.
//
// Tiers unavailable on the build/host are skipped via the runtime
// tier_available probe, as in tests/linalg/test_simd_parity.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "linalg/simd/kernels.hpp"
#include "sybil/routes.hpp"
#include "util/rng.hpp"
#include "../linalg/simd_tiers.hpp"

namespace socmix::sybil {
namespace {

namespace simd = linalg::simd;

constexpr std::uint64_t kSeed = 0x51b1111317ULL;

using test::available_tiers;
using test::TierGuard;

/// rev[e] for every half-edge e = (u -> v): u's index in v's list, found
/// by binary search rather than RouteTable's cursor pass.
std::vector<graph::NodeId> reverse_edges(const graph::Graph& g) {
  std::vector<graph::NodeId> rev(g.num_half_edges());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::EdgeIndex e = g.offsets()[u]; e < g.offsets()[u + 1]; ++e) {
      rev[e] = g.index_of_neighbor(g.raw_neighbors()[e], u);
    }
  }
  return rev;
}

struct HopLevel {
  std::vector<graph::NodeId> from;
  std::vector<graph::EdgeIndex> edge;
};

/// One route_hops call on the active tier over routes 0..edges.size()-1.
HopLevel run_hops(const graph::Graph& g, const std::vector<graph::NodeId>& rev,
                  const std::vector<graph::EdgeIndex>& edges) {
  const auto count = static_cast<std::uint32_t>(edges.size());
  HopLevel out{std::vector<graph::NodeId>(count), edges};
  std::vector<std::uint64_t> scratch(simd::route_hop_scratch_words(count));
  const simd::RouteHopArgs args{g.offsets().data(), g.raw_neighbors().data(),
                                rev.data(),         kSeed,
                                count,              out.from.data(),
                                out.edge.data(),    scratch.data()};
  simd::dispatch().route_hops(args);
  return out;
}

/// The same level through the protocol reference, route by route.
HopLevel reference_hops(const RouteTable& routes, const std::vector<graph::NodeId>& rev,
                        const std::vector<graph::EdgeIndex>& edges) {
  const graph::Graph& g = routes.graph();
  HopLevel out;
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    const graph::NodeId head = g.raw_neighbors()[edges[i]];
    out.from.push_back(head);
    out.edge.push_back(g.offsets()[head] + routes.next_out_index(i, head, rev[edges[i]]));
  }
  return out;
}

/// Runs `edges` as one hop level on every available tier; each must equal
/// the reference bit for bit.
void expect_level_parity(const RouteTable& routes, const std::vector<graph::NodeId>& rev,
                         const std::vector<graph::EdgeIndex>& edges,
                         const std::string& what) {
  const HopLevel expected = reference_hops(routes, rev, edges);
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    const HopLevel got = run_hops(routes.graph(), rev, edges);
    ASSERT_EQ(got.from, expected.from) << what << " tier " << simd::tier_name(tier);
    ASSERT_EQ(got.edge, expected.edge) << what << " tier " << simd::tier_name(tier);
  }
}

/// Every degree the Feistel half-width formula branches on: 1..5 and
/// 2^k - 1, 2^k, 2^k + 1 up to k = 17.
std::vector<graph::NodeId> zoo_degrees() {
  std::vector<graph::NodeId> degrees{2, 3, 4, 5};
  for (unsigned k = 3; k <= 17; ++k) {
    const graph::NodeId p = graph::NodeId{1} << k;
    degrees.insert(degrees.end(), {p - 1, p, p + 1});
  }
  return degrees;
}

/// A hub per zoo degree d, joined to leaves 0..d-1 of one shared pool: the
/// hubs carry the zoo degrees (up to a star hub of 2^17 + 1), and the
/// leaves every count of hubs they touch, down to degree 1.
graph::Graph degree_zoo() {
  const auto degrees = zoo_degrees();
  const graph::NodeId pool = degrees.back();
  graph::EdgeList edges;
  for (std::size_t h = 0; h < degrees.size(); ++h) {
    const auto hub = static_cast<graph::NodeId>(pool + h);
    for (graph::NodeId leaf = 0; leaf < degrees[h]; ++leaf) edges.add(hub, leaf);
  }
  return graph::Graph::from_edges(std::move(edges));
}

/// Half-edges into `v` from its first, middle and last neighbors (entry
/// index 0 .. deg-1), then out of `v` to the same.
void add_crossings(const graph::Graph& g, graph::NodeId v,
                   std::vector<graph::EdgeIndex>& out) {
  const graph::NodeId deg = g.degree(v);
  for (const graph::NodeId j : {graph::NodeId{0}, deg / 2, deg - 1}) {
    const graph::NodeId u = g.neighbor(v, j);
    out.push_back(g.offsets()[u] + g.index_of_neighbor(u, v));
    out.push_back(g.offsets()[v] + j);
  }
}

/// `count` routes cycling through `pool` from offset `shift`.
std::vector<graph::EdgeIndex> level_from(const std::vector<graph::EdgeIndex>& pool,
                                         std::size_t count, std::size_t shift) {
  std::vector<graph::EdgeIndex> edges(count);
  for (std::size_t i = 0; i < count; ++i) edges[i] = pool[(shift + i) % pool.size()];
  return edges;
}

TEST(RouteHopsParity, EveryHeadDegreeAndRouteCountOnEveryTier) {
  const graph::Graph g = degree_zoo();
  const RouteTable routes{g, kSeed};
  const auto rev = reverse_edges(g);
  const auto degrees = zoo_degrees();
  const graph::NodeId pool = degrees.back();
  ASSERT_EQ(g.degree(pool + static_cast<graph::NodeId>(degrees.size()) - 1),
            (graph::NodeId{1} << 17) + 1);

  std::vector<graph::EdgeIndex> crossings;
  for (std::size_t h = 0; h < degrees.size(); ++h) {
    add_crossings(g, static_cast<graph::NodeId>(pool + h), crossings);
  }
  // Leaves of several degrees (degree 1 at the far end of the pool).
  for (const graph::NodeId leaf : {graph::NodeId{0}, graph::NodeId{1}, graph::NodeId{4},
                                   graph::NodeId{100}, graph::NodeId{5000}, pool - 1}) {
    add_crossings(g, leaf, crossings);
  }
  const std::uint32_t r = ProtocolParams{}.instances(g);
  for (const std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                                  std::size_t{9}, std::size_t{r}}) {
    // Shifted windows put the crossings at different lane positions.
    for (std::size_t shift = 0; shift < 9; ++shift) {
      expect_level_parity(routes, rev, level_from(crossings, count, shift * 17),
                          "count " + std::to_string(count) + " shift " +
                              std::to_string(shift));
    }
  }
  // One level over every crossing at once.
  expect_level_parity(routes, rev, crossings, "all crossings");
}

TEST(RouteHopsParity, RandomLevelsAndWalkedChainsOnEveryTable1Config) {
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    SCOPED_TRACE(spec.name);
    const graph::Graph g =
        graph::largest_component(gen::build_dataset(spec, 400, 13)).graph;
    const RouteTable routes{g, kSeed};
    const auto rev = reverse_edges(g);
    const std::uint32_t r = ProtocolParams{}.instances(g);
    util::Rng rng{21};
    for (const std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                                    std::size_t{9}, std::size_t{r}}) {
      std::vector<graph::EdgeIndex> edges(count);
      for (auto& e : edges) e = rng.below(g.num_half_edges());
      expect_level_parity(routes, rev, edges, "random level of " + std::to_string(count));
      // A walked chain: each level's output is the next level's input.
      for (int level = 0; level < 6; ++level) {
        expect_level_parity(routes, rev, edges, "chain level " + std::to_string(level));
        edges = reference_hops(routes, rev, edges).edge;
      }
    }
  }
}

TEST(RouteHopsParity, ForEachTailEqualsRouteTailAtEveryLengthOnEveryTier) {
  constexpr std::size_t kMaxLength = 24;
  std::vector<std::size_t> lengths(kMaxLength);
  std::iota(lengths.begin(), lengths.end(), std::size_t{1});
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    SCOPED_TRACE(spec.name);
    const graph::Graph g =
        graph::largest_component(gen::build_dataset(spec, 400, 17)).graph;
    const RouteTable routes{g, kSeed};
    const std::uint32_t r = ProtocolParams{}.instances(g);
    for (const simd::Tier tier : available_tiers()) {
      const TierGuard guard{tier};
      ASSERT_TRUE(guard.ok());
      for (const graph::NodeId start : {graph::NodeId{0}, g.num_nodes() / 2}) {
        std::size_t visits = 0;
        routes.for_each_tail(r, start, lengths,
                             [&](std::size_t k, std::uint32_t i, DirectedEdge tail,
                                 graph::EdgeIndex) {
                               ++visits;
                               ASSERT_EQ(tail, *routes.route_tail(i, start, lengths[k]))
                                   << simd::tier_name(tier) << " instance " << i
                                   << " length " << lengths[k];
                             });
        EXPECT_EQ(visits, std::size_t{r} * kMaxLength);
      }
    }
  }
}

}  // namespace
}  // namespace socmix::sybil
