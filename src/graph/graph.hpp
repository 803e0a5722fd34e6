// Immutable simple undirected graph in Compressed Sparse Row (CSR) form.
//
// This is the substrate every measurement in the paper runs on: the random
// walk transition matrix P = D^-1 A is never materialized — SpMV kernels and
// walk samplers read the CSR adjacency directly.
#pragma once

#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace socmix::graph {

/// Simple undirected graph, frozen at construction.
///
/// Invariants (established by the builder, relied on everywhere):
///  * adjacency lists are sorted ascending and contain no duplicates,
///  * no self-loops,
///  * every undirected edge {u,v} appears in both lists.
///
/// Storage is either owned (the builders below) or borrowed
/// (`Graph::borrowed`, used by the `.smxg` container loader): a borrowed
/// view aliases caller-managed CSR arrays and must not outlive them.
/// Every accessor reads through one pointer+size pair per array, so
/// kernels are oblivious to the storage mode.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph& other) { assign(other); }
  Graph& operator=(const Graph& other) {
    if (this != &other) assign(other);
    return *this;
  }
  Graph(Graph&& other) noexcept { steal(other); }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) steal(other);
    return *this;
  }

  /// Builds from an edge list. The list is cleaned (self-loops removed,
  /// symmetrized, deduplicated) as the paper's preprocessing prescribes.
  [[nodiscard]] static Graph from_edges(EdgeList edges);

  /// Builds from a CSR whose rows may be unsorted and may repeat entries:
  /// each row is sorted and its repeats merged, in place. The rows must
  /// hold no self loop and list each undirected edge from both ends.
  [[nodiscard]] static Graph from_unsorted_csr(std::vector<EdgeIndex> offsets,
                                               std::vector<NodeId> neighbors);

  /// Builds from an already-clean sorted CSR (used by subgraph extraction;
  /// callers must uphold the class invariants).
  [[nodiscard]] static Graph from_csr(std::vector<EdgeIndex> offsets,
                                      std::vector<NodeId> neighbors);

  /// Wraps caller-owned CSR arrays without copying (the pack loader). The
  /// arrays must satisfy the class invariants and outlive the view — and
  /// any copy of it, which stays borrowed. `offsets` must have n+1 entries
  /// with offsets.front() == 0 and offsets.back() == neighbors.size().
  [[nodiscard]] static Graph borrowed(std::span<const EdgeIndex> offsets,
                                      std::span<const NodeId> neighbors);

  /// Always false: every graph, a decoded pack's included, carries its
  /// adjacency. perfbench/ still asks; delete with the next benchmark
  /// change.
  [[nodiscard]] bool headless() const noexcept { return false; }

  /// False for views created by `borrowed` (and their copies).
  [[nodiscard]] bool owns_storage() const noexcept {
    return offsets_ == nullptr || offsets_ == offsets_store_.data();
  }

  /// Number of vertices n = |V|.
  [[nodiscard]] NodeId num_nodes() const noexcept {
    return offsets_size_ == 0 ? 0 : static_cast<NodeId>(offsets_size_ - 1);
  }

  /// Number of undirected edges m = |E|.
  [[nodiscard]] EdgeIndex num_edges() const noexcept { return neighbors_size_ / 2; }

  /// Number of directed half-edges (2m); the denominator of pi = deg/2m.
  [[nodiscard]] EdgeIndex num_half_edges() const noexcept { return neighbors_size_; }

  [[nodiscard]] NodeId degree(NodeId v) const noexcept {
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbor list of v.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return {neighbors_ + offsets_[v], neighbors_ + offsets_[v + 1]};
  }

  /// Neighbor at local index i in v's adjacency list (i < degree(v)).
  [[nodiscard]] NodeId neighbor(NodeId v, NodeId i) const noexcept {
    return neighbors_[offsets_[v] + i];
  }

  /// Binary-search membership test; O(log deg(u)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Local index of v within u's adjacency list, or kInvalidNode if absent.
  [[nodiscard]] NodeId index_of_neighbor(NodeId u, NodeId v) const noexcept;

  [[nodiscard]] NodeId min_degree() const noexcept;
  [[nodiscard]] NodeId max_degree() const noexcept;

  /// True if every vertex has degree >= 1.
  [[nodiscard]] bool has_no_isolated_nodes() const noexcept;

  /// Raw CSR access for kernels (offsets has n+1 entries).
  [[nodiscard]] std::span<const EdgeIndex> offsets() const noexcept {
    return {offsets_, offsets_size_};
  }
  [[nodiscard]] std::span<const NodeId> raw_neighbors() const noexcept {
    return {neighbors_, neighbors_size_};
  }

  /// Footprint of the CSR arrays in bytes.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return offsets_size_ * sizeof(EdgeIndex) + neighbors_size_ * sizeof(NodeId);
  }

 private:
  Graph(std::vector<EdgeIndex> offsets, std::vector<NodeId> neighbors)
      : offsets_store_(std::move(offsets)), neighbors_store_(std::move(neighbors)) {
    point_at_store();
  }

  void point_at_store() noexcept {
    offsets_ = offsets_store_.data();
    offsets_size_ = offsets_store_.size();
    neighbors_ = neighbors_store_.data();
    neighbors_size_ = neighbors_store_.size();
  }

  void assign(const Graph& other) {
    const bool owned = other.owns_storage();
    offsets_store_ = other.offsets_store_;
    neighbors_store_ = other.neighbors_store_;
    if (owned) {
      point_at_store();
    } else {
      offsets_ = other.offsets_;
      offsets_size_ = other.offsets_size_;
      neighbors_ = other.neighbors_;
      neighbors_size_ = other.neighbors_size_;
    }
  }

  void steal(Graph& other) noexcept {
    const bool owned = other.owns_storage();
    offsets_store_ = std::move(other.offsets_store_);
    neighbors_store_ = std::move(other.neighbors_store_);
    if (owned) {
      point_at_store();
    } else {
      offsets_ = other.offsets_;
      offsets_size_ = other.offsets_size_;
      neighbors_ = other.neighbors_;
      neighbors_size_ = other.neighbors_size_;
    }
    other.offsets_store_.clear();
    other.neighbors_store_.clear();
    other.point_at_store();
  }

  std::vector<EdgeIndex> offsets_store_;  // size n+1 when owning
  std::vector<NodeId> neighbors_store_;   // size 2m when owning, lists sorted
  const EdgeIndex* offsets_ = nullptr;    // active view (store or borrowed)
  std::size_t offsets_size_ = 0;
  const NodeId* neighbors_ = nullptr;
  std::size_t neighbors_size_ = 0;
};

/// Deterministic structural fingerprint of a graph: hashes n, m, and a
/// bounded stride-sample of the CSR arrays (at most ~64K positions each,
/// so it stays O(1)-ish on paper-scale graphs). The `.smxg` header stores
/// it at pack time (MappedGraph::fingerprint); not a collision-resistant
/// digest.
[[nodiscard]] std::uint64_t structural_fingerprint(const Graph& g) noexcept;

}  // namespace socmix::graph
