#include "sybil/routes.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sybil/permutation.hpp"
#include "util/feistel.hpp"
#include "util/rng.hpp"

namespace socmix::sybil {

std::uint64_t undirected_key(DirectedEdge e) noexcept {
  auto a = e.from;
  auto b = e.to;
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::uint32_t ProtocolParams::instances(const graph::Graph& g) const {
  if (instances_override != 0) return instances_override;
  const double m = static_cast<double>(g.num_edges());
  return static_cast<std::uint32_t>(std::max(1.0, std::ceil(r0 * std::sqrt(m))));
}

RouteTable::RouteTable(const graph::Graph& g, std::uint64_t protocol_seed)
    : graph_(&g), seed_(protocol_seed) {
  require_adjacency(g);
  // Sorted, symmetric adjacency: visiting u in ascending order reaches
  // each v's neighbors in v's list order, so a per-v cursor counts u's
  // local index in v's list — O(m), no search.
  const auto offsets = g.offsets();
  const auto neighbors = g.raw_neighbors();
  rev_.resize(neighbors.size());
  std::vector<graph::NodeId> cursor(g.num_nodes(), 0);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::EdgeIndex e = offsets[u]; e < offsets[u + 1]; ++e) {
      rev_[e] = cursor[neighbors[e]]++;
    }
  }
}

void RouteTable::require_adjacency(const graph::Graph& g) {
  if (g.headless()) {
    throw std::invalid_argument{
        "sybil::RouteTable: headless graph (compressed .smxg view) has no "
        "in-memory adjacency for random routes; repack without --compress"};
  }
}

graph::NodeId RouteTable::next_out_index(std::uint32_t instance, graph::NodeId node,
                                         graph::NodeId in_index) const {
  const graph::NodeId deg = graph_->degree(node);
  const KeyedPermutation sigma{
      util::route_permutation_key<std::uint64_t>(seed_, instance, node), deg};
  return static_cast<graph::NodeId>(sigma.apply(in_index));
}

graph::NodeId RouteTable::start_out_index(std::uint32_t instance, graph::NodeId node) const {
  const graph::NodeId deg = graph_->degree(node);
  const std::uint64_t key = util::hash_combine(
      seed_ ^ 0x5747415254ULL,  // distinct key space from next_out_index
      (static_cast<std::uint64_t>(instance) << 32) | node);
  return static_cast<graph::NodeId>(util::mix64(key) % deg);
}

std::optional<DirectedEdge> RouteTable::route_tail(std::uint32_t instance,
                                                   graph::NodeId start,
                                                   std::size_t length) const {
  const graph::Graph& g = *graph_;
  if (length == 0 || g.degree(start) == 0) return std::nullopt;

  const auto neighbors = g.raw_neighbors();
  graph::NodeId from = start;
  graph::EdgeIndex e = start_edge(instance, start);
  for (std::size_t walked = 1; walked < length; ++walked) {
    from = neighbors[e];
    e = hop(instance, e);
  }
  return DirectedEdge{from, neighbors[e]};
}

}  // namespace socmix::sybil
