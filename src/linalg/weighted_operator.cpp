#include "linalg/weighted_operator.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/simd/kernels.hpp"

namespace socmix::linalg {

WeightedWalkOperator::WeightedWalkOperator(const graph::WeightedGraph& g, double laziness)
    : graph_(&g), laziness_(laziness) {
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument{"WeightedWalkOperator: laziness must be in [0, 1)"};
  }
  const graph::NodeId n = g.num_nodes();
  inv_sqrt_strength_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const double s = g.strength(v);
    if (s <= 0.0) {
      throw std::invalid_argument{
          "WeightedWalkOperator: isolated vertex (zero strength)"};
    }
    inv_sqrt_strength_[v] = 1.0 / std::sqrt(s);
  }
  // Fold the source-side normalization into the edge weights once:
  // edge_scaled_[e] = w_e / sqrt(strength(neighbor(e))). The apply loop
  // then issues one gather (x[j]) plus a streaming read of edge_scaled_
  // instead of gathering inv_sqrt_strength_[j] per edge as well.
  const auto neighbors = g.raw_neighbors();
  const auto weights = g.raw_weights();
  edge_scaled_.resize(weights.size());
  for (graph::EdgeIndex e = 0; e < weights.size(); ++e) {
    edge_scaled_[e] = weights[e] * inv_sqrt_strength_[neighbors[e]];
  }
}

void WeightedWalkOperator::apply(std::span<const double> x,
                                 std::span<double> y) const noexcept {
  const graph::WeightedGraph& g = *graph_;
  const graph::NodeId n = g.num_nodes();

  // Gather-stream kernel via the simd dispatch table: one gather of x per
  // edge plus a streaming read of the folded edge weights; every tier
  // sums edges in CSR order, so tier choice never changes a bit.
  simd::SpmvArgs args;
  args.offsets = g.offsets().data();
  args.neighbors = g.raw_neighbors().data();
  args.gather = x.data();
  args.x = x.data();
  args.y = y.data();
  args.walk_weight = 1.0 - laziness_;
  args.laziness = laziness_;
  args.row_scale = inv_sqrt_strength_.data();
  args.edge_scale = edge_scaled_.data();
  simd::dispatch().spmv(args, 0, n);
}

std::vector<double> WeightedWalkOperator::top_eigenvector() const {
  const auto n = dim();
  const double total = graph_->total_strength();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.0 / (inv_sqrt_strength_[i] * std::sqrt(total));
  }
  return v;
}

}  // namespace socmix::linalg
