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
//
// apply() sweeps the rows one contiguous vertex shard at a time through a
// ShardPipeline, which stages each shard's window of a compressed pack
// (madvise windowing and ADJC decode, on its worker thread when it has
// one) — the decoded adjacency stays near two shards however large the
// graph is. The default plan is one shard over the in-memory CSR, which is
// how in-memory graphs and raw packs run. Rows are independent and every
// row runs the identical spmv kernel, so shard geometry, staging and
// compression never change an output bit
// (tests/linalg/test_sharded_operator.cpp).
#pragma once

#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/shard_pipeline.hpp"

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

  /// Shard-at-a-time operator for out-of-core spectra. `plan.dim()` must
  /// equal g.num_nodes(). A headless `g` requires `mapped`, its compressed
  /// container, which must outlive the operator; for any other graph
  /// `mapped` is ignored. `hardware_threads` is passed to the
  /// ShardPipeline (tests pass 1 to stage windows inline on any host).
  WalkOperator(const graph::Graph& g, graph::ShardPlan plan, double laziness = 0.0,
               const graph::sharded::MappedGraph* mapped = nullptr,
               unsigned hardware_threads = std::thread::hardware_concurrency());

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
  [[nodiscard]] const graph::ShardPlan& plan() const noexcept { return plan_; }

  /// Maps an eigenvalue of the *simple* operator to this operator's:
  /// lambda -> (1-alpha) lambda + alpha.
  [[nodiscard]] double map_eigenvalue(double simple_lambda) const noexcept {
    return (1.0 - laziness_) * simple_lambda + laziness_;
  }

 private:
  const graph::Graph* graph_;
  graph::ShardPlan plan_;
  std::vector<double> inv_sqrt_deg_;
  /// apply() scratch: the pre-scaled source x[j] * inv_sqrt_deg_[j], so
  /// the edge loop is a single gather. Sized n at construction.
  mutable std::vector<double> scaled_;
  /// unique_ptr: the pipeline may own a worker thread and is neither
  /// copyable nor movable; the operator stays movable through it.
  std::unique_ptr<ShardPipeline> pipeline_;
  double laziness_;
};

}  // namespace socmix::linalg
