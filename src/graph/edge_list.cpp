#include "graph/edge_list.hpp"

#include <algorithm>

namespace socmix::graph {

void EdgeList::add(NodeId u, NodeId v) {
  edges_.push_back(Edge{u, v});
  const NodeId hi = u > v ? u : v;
  if (hi >= num_nodes_) num_nodes_ = hi + 1;
}

std::size_t EdgeList::count_self_loops() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(edges_.begin(), edges_.end(), [](const Edge& e) { return e.u == e.v; }));
}

}  // namespace socmix::graph
