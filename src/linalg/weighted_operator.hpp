// Symmetrized weighted walk operator N_w = S^{-1/2} W S^{-1/2}.
//
// The weighted random walk steps to neighbor j with probability
// w_ij / strength(i); its transition matrix S^{-1} W is similar to the
// symmetric N_w, whose spectrum Lanczos extracts exactly as in the
// unweighted case. The eigenvalue-1 eigenvector is S^{1/2} 1 normalized,
// i.e. sqrt(strength_i / total_strength).
#pragma once

#include <span>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace socmix::linalg {

/// Matrix-free symmetric operator for a weighted graph's normalized
/// adjacency; satisfies the WalkLikeOperator concept. Requires strictly
/// positive strengths everywhere (no isolated vertices).
class WeightedWalkOperator {
 public:
  explicit WeightedWalkOperator(const graph::WeightedGraph& g, double laziness = 0.0);

  void apply(std::span<const double> x, std::span<double> y) const noexcept;

  [[nodiscard]] std::size_t dim() const noexcept { return inv_sqrt_strength_.size(); }
  [[nodiscard]] double laziness() const noexcept { return laziness_; }

  /// Unit-norm eigenvector of eigenvalue 1: sqrt(strength_i / total).
  [[nodiscard]] std::vector<double> top_eigenvector() const;

  [[nodiscard]] const graph::WeightedGraph& graph() const noexcept { return *graph_; }

 private:
  const graph::WeightedGraph* graph_;
  std::vector<double> inv_sqrt_strength_;
  /// Per-edge weight with the source-side 1/sqrt(strength) folded in, so
  /// apply() gathers only x[j] per edge (built once at construction).
  std::vector<double> edge_scaled_;
  double laziness_;
};

}  // namespace socmix::linalg
