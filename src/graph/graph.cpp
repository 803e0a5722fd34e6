#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/rng.hpp"

namespace socmix::graph {

Graph Graph::from_edges(EdgeList edges) {
  // Counting sort into rows, then from_unsorted_csr orders and dedups
  // them: the same clean CSR a sort of the whole edge list gives, at two
  // linear passes.
  const NodeId n = edges.num_nodes();
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges.edges()) {
    if (e.u == e.v) continue;
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<NodeId> neighbors(offsets.back());
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges.edges()) {
    if (e.u == e.v) continue;
    neighbors[cursor[e.u]++] = e.v;
    neighbors[cursor[e.v]++] = e.u;
  }
  edges = EdgeList{};
  return from_unsorted_csr(std::move(offsets), std::move(neighbors));
}

Graph Graph::from_unsorted_csr(std::vector<EdgeIndex> offsets,
                               std::vector<NodeId> neighbors) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != neighbors.size()) {
    throw std::invalid_argument{"Graph::from_unsorted_csr: malformed offsets"};
  }
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  // Rows come out sorted with no comparison sort: walking the rows in
  // ascending order and appending each row's id to the rows it lists
  // fills every row in ascending order, and, the CSR being symmetric,
  // with exactly the entries (and repeats) it held.
  std::vector<NodeId> sorted(neighbors.size());
  {
    std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
    for (NodeId a = 0; a < n; ++a) {
      for (EdgeIndex e = offsets[a]; e < offsets[a + 1]; ++e) {
        const NodeId b = neighbors[e];
        if (b >= n || cursor[b] == offsets[b + 1]) {
          throw std::invalid_argument{"Graph::from_unsorted_csr: rows are not symmetric"};
        }
        sorted[cursor[b]++] = a;
      }
    }
  }
  neighbors = {};
  // Compact away repeats in place (an entry is kept unless it equals the
  // last one kept in its row), rebuilding the offsets as the write cursor
  // advances.
  EdgeIndex write = 0;
  EdgeIndex row_begin = 0;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeIndex row_end = offsets[v + 1];
    offsets[v] = write;
    for (EdgeIndex e = row_begin; e < row_end; ++e) {
      const NodeId u = sorted[e];
      if (write == offsets[v] || u != sorted[write - 1]) sorted[write++] = u;
    }
    row_begin = row_end;
  }
  offsets[n] = write;
  sorted.resize(write);
  sorted.shrink_to_fit();
  return Graph{std::move(offsets), std::move(sorted)};
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
