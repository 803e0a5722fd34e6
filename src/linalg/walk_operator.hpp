// The symmetrized random-walk operator N = D^{-1/2} A D^{-1/2}.
//
// The paper's SLEM is defined on the row-stochastic transition matrix
// P = D^{-1} A, which is not symmetric. N = D^{1/2} P D^{-1/2} is symmetric
// and *similar* to P, so it has exactly the same (real) eigenvalues — this
// is what lets us run symmetric Lanczos and still obtain the paper's mu.
// Eigenvalue 1 of N has the known eigenvector D^{1/2} * 1 (normalized),
// which the eigensolvers deflate analytically.
//
// A lazy-walk variant (I + N)/2 is provided for graphs whose simple walk is
// periodic (bipartite components), mirroring the standard lazy chain
// (I + P)/2 whose spectrum is the affine map (1 + lambda)/2.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace socmix::linalg {

/// Matrix-free symmetric operator for a graph's normalized adjacency.
/// Requires a graph with no isolated vertices (degree >= 1 everywhere);
/// the measurement pipeline guarantees this by extracting the largest
/// connected component first.
class WalkOperator {
 public:
  /// laziness alpha in [0, 1): the operator is (1-alpha) N + alpha I.
  /// alpha = 0 is the simple walk; alpha = 0.5 the standard lazy walk.
  explicit WalkOperator(const graph::Graph& g, double laziness = 0.0);

  /// y = Op * x. x and y must have size dim() and not alias. Rows are
  /// partitioned across the util::parallel pool; the gather formulation
  /// keeps the result bit-identical for any thread count. Uses an internal
  /// scratch buffer (the pre-scaled source vector), so concurrent apply()
  /// calls on the *same* operator are not allowed — concurrent operators
  /// on one graph are fine.
  void apply(std::span<const double> x, std::span<double> y) const;

  /// Minimum rows per parallel chunk: below this, dispatch overhead beats
  /// the work, so small graphs run inline on the calling thread.
  static constexpr std::size_t kApplyGrain = 2048;

  [[nodiscard]] std::size_t dim() const noexcept { return inv_sqrt_deg_.size(); }

  [[nodiscard]] double laziness() const noexcept { return laziness_; }

  /// Unit-norm eigenvector of eigenvalue 1: (D^{1/2} 1) / ||D^{1/2} 1||,
  /// i.e. v1[i] = sqrt(deg(i) / 2m). Valid for any laziness.
  [[nodiscard]] std::vector<double> top_eigenvector() const;

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }

  /// Maps an eigenvalue of the *simple* operator to this operator's:
  /// lambda -> (1-alpha) lambda + alpha.
  [[nodiscard]] double map_eigenvalue(double simple_lambda) const noexcept {
    return (1.0 - laziness_) * simple_lambda + laziness_;
  }

 private:
  const graph::Graph* graph_;
  std::vector<double> inv_sqrt_deg_;
  /// apply() scratch: the pre-scaled source x[j] * inv_sqrt_deg_[j], so
  /// the edge loop is a single gather. Sized n at construction.
  mutable std::vector<double> scaled_;
  double laziness_;
};

}  // namespace socmix::linalg
