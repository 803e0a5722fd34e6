// SybilLimit random routes.
//
// A random route is a random walk made *deterministic* by per-node edge
// permutations: in protocol instance i, a route entering node u through
// its j-th incident edge always leaves through edge sigma_{u,i}(j). The
// consequences (Yu et al.):
//   * convergence — two routes traversing the same directed edge in the
//     same instance merge forever;
//   * back-traceability — sigma is a bijection, so routes can be traced
//     backwards uniquely.
// Both properties are exercised by the test suite.
//
// The route "tail" is the last directed edge traversed — the credential
// SybilLimit registers and intersects.
//
// Every walker advances through one hop, RouteTable::hop: a route that
// crossed half-edge e = (u -> v) enters v at local index rev[e] (u's
// position in v's sorted list), read from a reverse-edge table built once
// per table — 4 B per half-edge, the size of the neighbor array — instead
// of a per-hop binary search. The batched walk (for_each_tail) runs the
// same hop for all instances at once through the linalg::simd route_hops
// kernel.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/simd/kernels.hpp"

namespace socmix::sybil {

/// Directed edge (from, to); `to` must be adjacent to `from`.
struct DirectedEdge {
  graph::NodeId from = graph::kInvalidNode;
  graph::NodeId to = graph::kInvalidNode;

  friend constexpr bool operator==(const DirectedEdge&, const DirectedEdge&) = default;
};

/// Canonical undirected edge key for tail intersection (order-free).
[[nodiscard]] std::uint64_t undirected_key(DirectedEdge e) noexcept;

/// The SybilLimit protocol parameters every entry point shares (the
/// protocol reference SybilLimit, the AdmissionEngine and the Fig.-8
/// sweep); the route length w is per entry point.
struct ProtocolParams {
  /// Pending-route multiplier r0 in r = ceil(r0 * sqrt(m)).
  double r0 = 4.0;
  /// Explicit instance count; 0 = derive from r0.
  std::uint32_t instances_override = 0;
  /// Balance condition multiplier (h in the SybilLimit paper, typically 4).
  double balance_factor = 4.0;
  /// Protocol seed: fixes all route permutations. One seed serves every
  /// route length — the invariant incremental tail extension rests on
  /// (length-w tails are prefixes of the length-w_max walk only under one
  /// seed).
  std::uint64_t seed = 0x51b1111317ULL;

  /// Protocol instances r on `g`: instances_override when set, else
  /// max(1, ceil(r0 * sqrt(m))) — chosen by the birthday paradox.
  [[nodiscard]] std::uint32_t instances(const graph::Graph& g) const;
};

/// Evaluates the per-(node, instance) routing permutations of a graph.
/// Permutations are realized through keyed PRPs (O(1) memory per
/// evaluation); the only per-graph state is the reverse-edge table.
class RouteTable {
 public:
  /// Builds the reverse-edge table in O(m).
  RouteTable(const graph::Graph& g, std::uint64_t protocol_seed);

  /// Outgoing local edge index for a route entering `node` via local edge
  /// index `in_index`, in protocol instance `instance`.
  [[nodiscard]] graph::NodeId next_out_index(std::uint32_t instance, graph::NodeId node,
                                             graph::NodeId in_index) const;

  /// First hop of a route started *by* `node` in `instance`: SybilLimit
  /// routes start along sigma of a virtual incoming edge, realized here as
  /// a keyed pseudo-random (but fixed) choice among the node's edges.
  [[nodiscard]] graph::NodeId start_out_index(std::uint32_t instance,
                                              graph::NodeId node) const;

  /// Walks a route of `length` hops from `start`. Returns the tail (last
  /// directed edge), or nullopt when length == 0 or start is isolated.
  [[nodiscard]] std::optional<DirectedEdge> route_tail(std::uint32_t instance,
                                                       graph::NodeId start,
                                                       std::size_t length) const;

  /// Every batched walk: instances 0..instances-1 from `start`, each
  /// handing its tail at every requested length to `visit(k, i, tail)` as
  /// it is reached. Incremental tail extension: the length-w tail is hop w
  /// of the same deterministic route, so one walk to lengths.back() yields
  /// the tails at *every* requested length on the way, and `tail` is
  /// bitwise equal to *route_tail(i, start, lengths[k]). `lengths` must be
  /// strictly ascending; zero lengths are allowed as a leading entry and
  /// visit nothing (route_tail's nullopt). Cost is O(instances *
  /// lengths.back()) hops — a route-length sweep pays for its longest
  /// point only, instead of the O(sum of lengths) a per-length rewalk
  /// costs.
  ///
  /// The walk is hop-major: every route advances one hop before any
  /// advances the next, so the per-hop working set stays inside the
  /// start's t-hop ball, and the tails are visited length by length, the
  /// instances of one length in ascending order. Visits nothing for an
  /// isolated start, zero instances or zero lengths.
  template <typename Visit>
  void for_each_tail(std::uint32_t instances, graph::NodeId start,
                     std::span<const std::size_t> lengths, Visit&& visit) const {
    std::size_t first = 0;
    while (first < lengths.size() && lengths[first] == 0) ++first;
    if (instances == 0 || first == lengths.size() || graph_->degree(start) == 0) return;
    const auto neighbors = graph_->raw_neighbors();

    // The hop-h loop touches only the start's h-hop ball, so its CSR rows
    // stay hot across instances; each checkpoint length visits the
    // current (from, head) pairs. One route_hops call advances every
    // instance one hop — hop() per instance, on the active SIMD tier.
    std::vector<graph::NodeId> from(instances, start);
    std::vector<graph::EdgeIndex> edge(instances);
    for (std::uint32_t i = 0; i < instances; ++i) edge[i] = start_edge(i, start);
    std::vector<std::uint64_t> scratch(linalg::simd::route_hop_scratch_words(instances));
    const linalg::simd::RouteHopArgs hops{
        graph_->offsets().data(), neighbors.data(), rev_.data(), seed_, instances,
        from.data(),              edge.data(),      scratch.data()};
    const linalg::simd::RouteHopsFn route_hops = linalg::simd::dispatch().route_hops;
    std::size_t walked = 1;  // (from, head) is the length-1 tail
    for (std::size_t k = first; k < lengths.size(); ++k) {
      for (; walked < lengths[k]; ++walked) route_hops(hops);
      for (std::uint32_t i = 0; i < instances; ++i) {
        visit(k, i, DirectedEdge{from[i], neighbors[edge[i]]});
      }
    }
  }

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::uint64_t protocol_seed() const noexcept { return seed_; }

 private:
  /// Half-edge index of `node`'s local edge `index`.
  [[nodiscard]] graph::EdgeIndex half_edge(graph::NodeId node,
                                           graph::NodeId index) const {
    return graph_->offsets()[node] + index;
  }
  /// The half-edge a route of `instance` that started at `start` leaves by.
  [[nodiscard]] graph::EdgeIndex start_edge(std::uint32_t instance,
                                            graph::NodeId start) const {
    return half_edge(start, start_out_index(instance, start));
  }
  /// The one route hop: a route of `instance` that crossed half-edge `e`
  /// leaves its head by the returned half-edge.
  [[nodiscard]] graph::EdgeIndex hop(std::uint32_t instance, graph::EdgeIndex e) const {
    const graph::NodeId head = graph_->raw_neighbors()[e];
    return half_edge(head, next_out_index(instance, head, rev_[e]));
  }

  const graph::Graph* graph_;
  std::uint64_t seed_;
  /// rev_[offsets[u] + j] = u's local index in neighbor(u, j)'s list.
  std::vector<graph::NodeId> rev_;
};

}  // namespace socmix::sybil
