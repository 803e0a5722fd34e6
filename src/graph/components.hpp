// Connected components and largest-component extraction.
//
// The mixing time is undefined on a disconnected graph, so the paper runs
// every measurement on the largest connected component (§4). This module
// finds components by BFS and extracts the largest as a relabeled Graph.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/subgraph.hpp"

namespace socmix::graph {

/// Component labeling of a graph.
struct Components {
  /// component[v] = dense component id of v.
  std::vector<NodeId> component;
  /// sizes[c] = number of vertices in component c.
  std::vector<NodeId> sizes;

  [[nodiscard]] std::size_t count() const noexcept { return sizes.size(); }

  /// Id of the largest component (ties broken by lowest id).
  [[nodiscard]] NodeId largest() const noexcept;
};

/// Labels all connected components via BFS. O(n + m).
[[nodiscard]] Components connected_components(const Graph& g);

/// Extracts the largest connected component, relabeling vertices densely
/// in ascending order of their old ids. A graph that is one component
/// already comes back as it is (copied, or moved from an rvalue), with
/// original_id the identity.
[[nodiscard]] ExtractedSubgraph largest_component(const Graph& g);
[[nodiscard]] ExtractedSubgraph largest_component(Graph&& g);

/// True if the whole graph is one connected component (and nonempty).
[[nodiscard]] bool is_connected(const Graph& g);

}  // namespace socmix::graph
