#include "graph/subgraph.hpp"

#include <algorithm>

namespace socmix::graph {

ExtractedSubgraph induced_subgraph(const Graph& g, std::span<const NodeId> members) {
  ExtractedSubgraph out;
  out.original_id.assign(members.begin(), members.end());

  // Dense membership map: new id + 1, or 0 for "not a member".
  std::vector<NodeId> new_id(g.num_nodes(), kInvalidNode);
  for (std::size_t i = 0; i < out.original_id.size(); ++i) {
    new_id[out.original_id[i]] = static_cast<NodeId>(i);
  }

  const auto n = static_cast<NodeId>(out.original_id.size());
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    EdgeIndex deg = 0;
    for (const NodeId w : g.neighbors(out.original_id[v])) {
      if (new_id[w] != kInvalidNode) ++deg;
    }
    offsets[v + 1] = offsets[v] + deg;
  }

  // Ascending members relabel monotonically, so each row, sorted in `g`,
  // stays sorted.
  const bool monotone = std::is_sorted(members.begin(), members.end());
  std::vector<NodeId> neighbors(offsets.back());
  for (NodeId v = 0; v < n; ++v) {
    EdgeIndex cursor = offsets[v];
    for (const NodeId w : g.neighbors(out.original_id[v])) {
      if (new_id[w] != kInvalidNode) neighbors[cursor++] = new_id[w];
    }
    if (monotone) continue;
    std::sort(neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  }
  out.graph = Graph::from_csr(std::move(offsets), std::move(neighbors));
  return out;
}

}  // namespace socmix::graph
