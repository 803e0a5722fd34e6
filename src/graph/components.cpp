#include "graph/components.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "graph/subgraph.hpp"
#include "obs/obs.hpp"

namespace socmix::graph {

NodeId Components::largest() const noexcept {
  if (sizes.empty()) return kInvalidNode;
  const auto it = std::max_element(sizes.begin(), sizes.end());
  return static_cast<NodeId>(it - sizes.begin());
}

Components connected_components(const Graph& g) {
  const NodeId n = g.num_nodes();
  Components out;
  out.component.assign(n, kInvalidNode);

  std::vector<NodeId> frontier;
  for (NodeId start = 0; start < n; ++start) {
    if (out.component[start] != kInvalidNode) continue;
    const auto label = static_cast<NodeId>(out.sizes.size());
    NodeId count = 0;
    frontier.clear();
    frontier.push_back(start);
    out.component[start] = label;
    while (!frontier.empty()) {
      const NodeId v = frontier.back();
      frontier.pop_back();
      ++count;
      for (const NodeId w : g.neighbors(v)) {
        if (out.component[w] == kInvalidNode) {
          out.component[w] = label;
          frontier.push_back(w);
        }
      }
    }
    out.sizes.push_back(count);
  }
  return out;
}

namespace {

/// `g` with storage of its own: a borrowed view's arrays are copied.
Graph with_own_storage(Graph g) {
  if (g.owns_storage()) return g;
  const auto offsets = g.offsets();
  const auto neighbors = g.raw_neighbors();
  return Graph::from_csr({offsets.begin(), offsets.end()},
                         {neighbors.begin(), neighbors.end()});
}

/// The largest component of `g` (a const or movable graph): `g` itself when
/// it is already one component, else its induced subgraph.
template <class G>
ExtractedSubgraph largest_component_of(G&& g) {
  SOCMIX_TRACE_SPAN("graph.lcc");
  const Components comps = connected_components(g);
  const NodeId n = g.num_nodes();
  if (comps.count() == 1) {
    ExtractedSubgraph out;
    out.original_id.resize(n);
    std::iota(out.original_id.begin(), out.original_id.end(), NodeId{0});
    out.graph = with_own_storage(std::forward<G>(g));
    return out;
  }
  const NodeId target = comps.largest();
  std::vector<NodeId> members;
  if (target != kInvalidNode) {
    members.reserve(comps.sizes[target]);
    for (NodeId v = 0; v < n; ++v) {
      if (comps.component[v] == target) members.push_back(v);
    }
  }
  return induced_subgraph(g, members);
}

}  // namespace

ExtractedSubgraph largest_component(const Graph& g) {
  return largest_component_of(g);
}

ExtractedSubgraph largest_component(Graph&& g) {
  return largest_component_of(std::move(g));
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return false;
  const Components comps = connected_components(g);
  return comps.count() == 1;
}

}  // namespace socmix::graph
