#include "sybil/routes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "graph/components.hpp"
#include "util/rng.hpp"

namespace socmix::sybil {
namespace {

/// Independent oracle for the walkers: the route's vertex sequence with
/// every in-index found by binary search (Graph::index_of_neighbor), not
/// read from the table's reverse-edge table.
std::vector<graph::NodeId> reference_route(const RouteTable& routes,
                                           std::uint32_t instance, graph::NodeId start,
                                           std::size_t length) {
  const graph::Graph& g = routes.graph();
  std::vector<graph::NodeId> walk{start};
  if (length == 0 || g.degree(start) == 0) return walk;
  graph::NodeId current = start;
  graph::NodeId next = g.neighbor(start, routes.start_out_index(instance, start));
  walk.push_back(next);
  for (std::size_t hop = 1; hop < length; ++hop) {
    const graph::NodeId in_index = g.index_of_neighbor(next, current);
    const graph::NodeId out_index = routes.next_out_index(instance, next, in_index);
    current = next;
    next = g.neighbor(current, out_index);
    walk.push_back(next);
  }
  return walk;
}

DirectedEdge reference_tail(const RouteTable& routes, std::uint32_t instance,
                            graph::NodeId start, std::size_t length) {
  const auto walk = reference_route(routes, instance, start, length);
  return {walk[walk.size() - 2], walk.back()};
}

/// The route's vertex sequence as the production walker produces it: one
/// for_each_tail walk to every length 1..length, keeping `instance`'s
/// tails. Each tail must leave the vertex the previous one entered.
std::vector<graph::NodeId> walker_route(const RouteTable& routes, std::uint32_t instance,
                                        graph::NodeId start, std::size_t length) {
  std::vector<std::size_t> lengths(length);
  std::iota(lengths.begin(), lengths.end(), std::size_t{1});
  std::vector<graph::NodeId> walk{start};
  routes.for_each_tail(instance + 1, start, lengths,
                       [&](std::size_t k, std::uint32_t i, DirectedEdge tail,
                           graph::EdgeIndex) {
                         if (i != instance) return;
                         EXPECT_EQ(tail.from, walk.back()) << "tail " << k << " detached";
                         walk.push_back(tail.to);
                       });
  return walk;
}

/// for_each_tail's visits gathered per length: out[k][i] is instance i's
/// tail at lengths[k]. Checks the contract that the instances of one
/// length arrive in ascending order.
std::vector<std::vector<DirectedEdge>> batched_tails(
    const RouteTable& routes, std::uint32_t instances, graph::NodeId start,
    std::span<const std::size_t> lengths) {
  std::vector<std::vector<DirectedEdge>> out(lengths.size());
  routes.for_each_tail(instances, start, lengths,
                       [&](std::size_t k, std::uint32_t i, DirectedEdge tail,
                           graph::EdgeIndex e) {
                         EXPECT_EQ(i, out[k].size()) << "instance order at k=" << k;
                         // The half-edge handed over is the tail's own.
                         const auto heads = routes.graph().raw_neighbors();
                         EXPECT_EQ(heads[e], tail.to);
                         EXPECT_EQ(heads[routes.twin(e)], tail.from);
                         out[k].push_back(tail);
                       });
  return out;
}

TEST(UndirectedKey, OrderFree) {
  EXPECT_EQ(undirected_key({3, 9}), undirected_key({9, 3}));
  EXPECT_NE(undirected_key({3, 9}), undirected_key({3, 8}));
}

TEST(RouteTable, NextOutIndexIsPermutation) {
  // For every node and instance, in_index -> out_index must be a bijection
  // on [0, deg): this is the property that makes routes back-traceable.
  util::Rng rng{1};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(40, 120, rng)).graph;
  const RouteTable routes{g, /*protocol_seed=*/7};
  for (const std::uint32_t instance : {0u, 1u, 5u}) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const graph::NodeId deg = g.degree(v);
      std::vector<char> seen(deg, 0);
      for (graph::NodeId i = 0; i < deg; ++i) {
        const graph::NodeId out = routes.next_out_index(instance, v, i);
        ASSERT_LT(out, deg);
        EXPECT_EQ(seen[out], 0) << "collision at node " << v;
        seen[out] = 1;
      }
    }
  }
}

TEST(RouteTable, RouteIsDeterministic) {
  const auto g = gen::circulant(50, 4);
  const RouteTable routes{g, 99};
  const auto a = walker_route(routes, 3, 10, 20);
  const auto b = walker_route(routes, 3, 10, 20);
  EXPECT_EQ(a, b);
  EXPECT_EQ(routes.route_tail(3, 10, 20), routes.route_tail(3, 10, 20));
}

TEST(RouteTable, DifferentInstancesDiverge) {
  const auto g = gen::circulant(200, 6);
  const RouteTable routes{g, 1};
  const auto a = walker_route(routes, 0, 0, 30);
  const auto b = walker_route(routes, 1, 0, 30);
  EXPECT_NE(a, b);
}

TEST(RouteTable, RouteFollowsEdges) {
  util::Rng rng{2};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(60, 180, rng)).graph;
  const RouteTable routes{g, 3};
  const auto walk = walker_route(routes, 2, 5, 15);
  ASSERT_EQ(walk.size(), 16u);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    EXPECT_TRUE(g.has_edge(walk[i - 1], walk[i]));
  }
}

TEST(RouteTable, TailMatchesVertexSequence) {
  const auto g = gen::circulant(80, 4);
  const RouteTable routes{g, 5};
  for (const std::size_t w : {1u, 3u, 10u}) {
    const auto walk = walker_route(routes, 2, 7, w);
    const auto tail = routes.route_tail(2, 7, w);
    ASSERT_TRUE(tail.has_value());
    EXPECT_EQ(tail->from, walk[walk.size() - 2]);
    EXPECT_EQ(tail->to, walk.back());
  }
}

TEST(RouteTable, ZeroLengthHasNoTail) {
  const auto g = gen::complete(5);
  const RouteTable routes{g, 1};
  EXPECT_FALSE(routes.route_tail(0, 0, 0).has_value());
}

TEST(RouteTable, BatchedTailsMatchPerInstanceTails) {
  // The hop-major batched walk is a pure reordering of the per-instance
  // permutation evaluations, so every tail must be identical — including
  // on an irregular graph where routes wander far from the start.
  util::Rng rng{9};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(60, 180, rng)).graph;
  const RouteTable routes{g, 21};
  for (const std::uint32_t instances : {1u, 7u, 32u}) {
    for (const std::size_t w : {1u, 2u, 10u, 25u}) {
      const std::size_t lengths[] = {w};
      for (const graph::NodeId start : {graph::NodeId{0}, graph::NodeId{17}}) {
        const auto batched = batched_tails(routes, instances, start, lengths);
        ASSERT_EQ(batched[0].size(), instances)
            << "r=" << instances << " w=" << w << " start=" << start;
        for (std::uint32_t i = 0; i < instances; ++i) {
          const auto tail = routes.route_tail(i, start, w);
          ASSERT_TRUE(tail.has_value());
          EXPECT_EQ(batched[0][i], *tail) << "instance " << i;
        }
      }
    }
  }
}

TEST(RouteTable, BatchedTailsEmptyWhenNoRoute) {
  const auto g = gen::complete(5);
  const RouteTable routes{g, 1};
  const std::size_t zero[] = {0};
  const std::size_t three[] = {3};
  EXPECT_TRUE(batched_tails(routes, 4, 0, zero)[0].empty());
  EXPECT_TRUE(batched_tails(routes, 0, 0, three)[0].empty());
  EXPECT_TRUE(batched_tails(routes, 4, 0, {}).empty());
}

TEST(RouteTable, EveryWalkerMatchesTheBinarySearchOracleOnEveryTable1Config) {
  const std::vector<std::size_t> lengths{1, 2, 5, 9, 16};
  constexpr std::uint32_t kInstances = 9;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, 140, 13);
    const RouteTable routes{g, 0x0dac1e};
    for (graph::NodeId start = 0; start < g.num_nodes(); start += 23) {
      for (std::uint32_t i = 0; i < kInstances; ++i) {
        const auto walk = walker_route(routes, i, start, lengths.back());
        ASSERT_EQ(walk, reference_route(routes, i, start, lengths.back()))
            << spec.name << " start=" << start << " i=" << i;
        for (const std::size_t w : lengths) {
          EXPECT_EQ(routes.route_tail(i, start, w), reference_tail(routes, i, start, w))
              << spec.name << " start=" << start << " i=" << i << " w=" << w;
        }
      }
      const auto batched = batched_tails(routes, kInstances, start, lengths);
      for (std::size_t k = 0; k < lengths.size(); ++k) {
        ASSERT_EQ(batched[k].size(), kInstances);
        for (std::uint32_t i = 0; i < kInstances; ++i) {
          EXPECT_EQ(batched[k][i], reference_tail(routes, i, start, lengths[k]))
              << spec.name << " start=" << start << " i=" << i << " w=" << lengths[k];
        }
      }
    }
  }
}

TEST(RouteTable, TwinRunsBackAcrossTheSameEdgeOnEveryTable1Config) {
  // Every half-edge e = (u -> v): twin(e) lies in v's row, points back at
  // u, and twin(twin(e)) == e.
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, 300, 5);
    const RouteTable routes{g, 0x7411};
    const auto offsets = g.offsets();
    const auto heads = g.raw_neighbors();
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::EdgeIndex e = offsets[u]; e < offsets[u + 1]; ++e) {
        const graph::EdgeIndex t = routes.twin(e);
        ASSERT_LT(t, heads.size()) << spec.name << " e=" << e;
        EXPECT_EQ(routes.twin(t), e) << spec.name << " e=" << e;
        EXPECT_EQ(heads[t], u) << spec.name << " e=" << e;
        EXPECT_GE(t, offsets[heads[e]]) << spec.name << " e=" << e;
        EXPECT_LT(t, offsets[heads[e] + 1]) << spec.name << " e=" << e;
      }
    }
  }
}

TEST(RouteTable, CanonicalHalfEdgeOrderIsUndirectedKeyOrder) {
  // min(e, twin(e)) names an undirected edge exactly as undirected_key
  // does, and sorts the edges in the same order — so a verifier's load
  // counters are numbered alike under either key.
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, 300, 5);
    const RouteTable routes{g, 0x7411};
    const auto offsets = g.offsets();
    const auto heads = g.raw_neighbors();
    std::vector<std::pair<graph::EdgeIndex, std::uint64_t>> named;
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::EdgeIndex e = offsets[u]; e < offsets[u + 1]; ++e) {
        named.emplace_back(std::min(e, routes.twin(e)), undirected_key({u, heads[e]}));
      }
    }
    std::sort(named.begin(), named.end());
    for (std::size_t i = 1; i < named.size(); ++i) {
      const bool same_edge = named[i].first == named[i - 1].first;
      EXPECT_EQ(same_edge, named[i].second == named[i - 1].second)
          << spec.name << " i=" << i;
      EXPECT_LE(named[i - 1].second, named[i].second) << spec.name << " i=" << i;
    }
  }
}

TEST(RouteTable, ConvergenceProperty) {
  // SybilLimit's crucial property: once two routes in the same instance
  // traverse the same directed edge, they coincide forever after. Verify
  // by walking all vertices and indexing position of each directed edge.
  util::Rng rng{3};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(50, 150, rng)).graph;
  const RouteTable routes{g, 11};
  const std::size_t w = 12;
  const std::uint32_t instance = 4;

  std::vector<std::vector<graph::NodeId>> walks;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    walks.push_back(walker_route(routes, instance, v, w));
  }
  for (std::size_t a = 0; a < walks.size(); ++a) {
    for (std::size_t b = a + 1; b < walks.size(); ++b) {
      // Find a common directed edge at positions i (walk a) and j (walk b).
      for (std::size_t i = 1; i < walks[a].size(); ++i) {
        for (std::size_t j = 1; j < walks[b].size(); ++j) {
          if (walks[a][i - 1] == walks[b][j - 1] && walks[a][i] == walks[b][j]) {
            // Suffixes must agree step for step.
            std::size_t ia = i;
            std::size_t jb = j;
            while (ia + 1 < walks[a].size() && jb + 1 < walks[b].size()) {
              ++ia;
              ++jb;
              ASSERT_EQ(walks[a][ia], walks[b][jb])
                  << "routes diverged after sharing edge";
            }
          }
        }
      }
    }
  }
}

TEST(RouteTable, BackTraceability) {
  // sigma is invertible, so distinct routes cannot merge *backwards*: two
  // different vertices' routes entering the same node at the same step via
  // the same edge are impossible. Equivalent check: in one instance, the
  // map (directed edge) -> (next directed edge) is injective.
  util::Rng rng{4};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(40, 120, rng)).graph;
  const RouteTable routes{g, 13};
  const std::uint32_t instance = 2;

  std::map<std::pair<graph::NodeId, graph::NodeId>, std::pair<graph::NodeId, graph::NodeId>>
      successor_of;
  std::set<std::pair<graph::NodeId, graph::NodeId>> images;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto adj = g.neighbors(u);
    for (graph::NodeId i = 0; i < adj.size(); ++i) {
      // Directed edge (adj[i] -> u) continues to (u -> next).
      const graph::NodeId out = routes.next_out_index(instance, u, i);
      const auto next = std::make_pair(u, g.neighbor(u, out));
      const bool inserted = images.insert(next).second;
      EXPECT_TRUE(inserted) << "two edges map to the same successor";
    }
  }
}

}  // namespace
}  // namespace socmix::sybil
