// Mutable edge-list staging area used to assemble graphs before freezing
// them into immutable CSR form.
//
// The paper's preprocessing pipeline (§4): take a possibly-directed crawl,
// make it undirected, drop self-loops and duplicate edges, then extract the
// largest connected component. EdgeList only collects the raw edges;
// Graph::from_edges does the first three steps while it builds the CSR.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace socmix::graph {

/// A single undirected or directed edge between two vertex ids.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend constexpr bool operator==(const Edge&, const Edge&) = default;
  friend constexpr auto operator<=>(const Edge&, const Edge&) = default;
};

/// Growable list of raw edges, possibly directed, repeated or self loops.
/// Node ids are dense indices [0, num_nodes).
class EdgeList {
 public:
  EdgeList() = default;

  /// Creates a list that knows it will hold vertices [0, n) even if some
  /// are isolated.
  explicit EdgeList(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Appends an edge; expands num_nodes() to cover both endpoints.
  void add(NodeId u, NodeId v);

  void reserve(std::size_t edges) { edges_.reserve(edges); }

  [[nodiscard]] std::size_t size() const noexcept { return edges_.size(); }
  [[nodiscard]] bool empty() const noexcept { return edges_.empty(); }
  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }

  /// Raises the node count (for declaring isolated trailing vertices).
  void ensure_nodes(NodeId n) { num_nodes_ = n > num_nodes_ ? n : num_nodes_; }

  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Number of edges with u == v currently present.
  [[nodiscard]] std::size_t count_self_loops() const noexcept;

 private:
  std::vector<Edge> edges_;
  NodeId num_nodes_ = 0;
};

}  // namespace socmix::graph
