#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/rng.hpp"

namespace socmix::graph {

Graph Graph::from_edges(EdgeList edges) {
  edges.remove_self_loops();
  edges.symmetrize_and_dedup();

  const NodeId n = edges.num_nodes();
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges.edges()) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<NodeId> neighbors(offsets.back());
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges.edges()) {
    neighbors[cursor[e.u]++] = e.v;
    neighbors[cursor[e.v]++] = e.u;
  }
  for (NodeId v = 0; v < n; ++v) {
    std::sort(neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  }
  return Graph{std::move(offsets), std::move(neighbors)};
}

Graph Graph::from_csr(std::vector<EdgeIndex> offsets, std::vector<NodeId> neighbors) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != neighbors.size()) {
    throw std::invalid_argument{"Graph::from_csr: malformed offsets"};
  }
  return Graph{std::move(offsets), std::move(neighbors)};
}

Graph Graph::borrowed(std::span<const EdgeIndex> offsets, std::span<const NodeId> neighbors) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != neighbors.size()) {
    throw std::invalid_argument{"Graph::borrowed: malformed offsets"};
  }
  Graph g;
  g.offsets_ = offsets.data();
  g.offsets_size_ = offsets.size();
  g.neighbors_ = neighbors.data();
  g.neighbors_size_ = neighbors.size();
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  const auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

NodeId Graph::index_of_neighbor(NodeId u, NodeId v) const noexcept {
  const auto adj = neighbors(u);
  const auto it = std::lower_bound(adj.begin(), adj.end(), v);
  if (it == adj.end() || *it != v) return kInvalidNode;
  return static_cast<NodeId>(it - adj.begin());
}

NodeId Graph::min_degree() const noexcept {
  const NodeId n = num_nodes();
  if (n == 0) return 0;
  NodeId best = degree(0);
  for (NodeId v = 1; v < n; ++v) best = std::min(best, degree(v));
  return best;
}

NodeId Graph::max_degree() const noexcept {
  const NodeId n = num_nodes();
  NodeId best = 0;
  for (NodeId v = 0; v < n; ++v) best = std::max(best, degree(v));
  return best;
}

bool Graph::has_no_isolated_nodes() const noexcept {
  const NodeId n = num_nodes();
  for (NodeId v = 0; v < n; ++v)
    if (degree(v) == 0) return false;
  return true;
}

std::uint64_t structural_fingerprint(const Graph& g) noexcept {
  constexpr std::size_t kMaxSamples = 1u << 16;
  std::uint64_t h = util::hash_combine(g.num_nodes(), g.num_half_edges());
  const auto sample = [&h](const auto& array) {
    const std::size_t size = array.size();
    const std::size_t stride = size <= kMaxSamples ? 1 : size / kMaxSamples;
    for (std::size_t i = 0; i < size; i += stride) {
      h = util::hash_combine(h, static_cast<std::uint64_t>(array[i]));
    }
    if (size > 0) h = util::hash_combine(h, static_cast<std::uint64_t>(array[size - 1]));
  };
  sample(g.offsets());
  sample(g.raw_neighbors());
  return h;
}

}  // namespace socmix::graph
