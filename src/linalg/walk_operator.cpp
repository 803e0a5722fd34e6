#include "linalg/walk_operator.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "linalg/simd/kernels.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace socmix::linalg {

WalkOperator::WalkOperator(const graph::Graph& g, double laziness)
    : graph_(&g), laziness_(laziness) {
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument{"WalkOperator: laziness must be in [0, 1)"};
  }
  const graph::NodeId n = g.num_nodes();
  inv_sqrt_deg_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const graph::NodeId d = g.degree(v);
    if (d == 0) {
      throw std::invalid_argument{
          "WalkOperator: graph has an isolated vertex; extract the largest "
          "connected component first"};
    }
    inv_sqrt_deg_[v] = 1.0 / std::sqrt(static_cast<double>(d));
  }
  scaled_.resize(n);
}

void WalkOperator::apply(std::span<const double> x, std::span<double> y) const {
  SOCMIX_TRACE_SPAN("spmv.apply");
  const graph::NodeId n = graph_->num_nodes();
  SOCMIX_COUNTER_ADD("linalg.spmv.applies", 1);
  SOCMIX_COUNTER_ADD("linalg.spmv.rows", n);

  // (N x)_i = (1/sqrt d_i) * sum_{j ~ i} x_j / sqrt d_j. The source-side
  // scaling is hoisted out of the edge loop: one streaming pass computes
  // scaled_[j] = x[j] / sqrt d_j, so the irregular inner loop issues a
  // single gather per edge instead of two (x[j] and inv_sqrt_deg_[j]).
  // Rows are partitioned across threads: each y[i] is produced by exactly
  // one thread with a fixed accumulation order, making the result
  // bit-identical for any thread count — and every kernel tier runs the
  // same SpMV (see linalg/simd). Lanczos scales with cores through this
  // one kernel.
  double* const scaled = scaled_.data();
  const simd::KernelTable& kernels = simd::dispatch();
  util::parallel_for(0, n, kApplyGrain, [&](std::size_t lo, std::size_t hi) {
    kernels.prescale_f64(x.data(), inv_sqrt_deg_.data(), scaled, lo, hi);
  });
  simd::SpmvArgs args;
  args.offsets = graph_->offsets().data();
  args.neighbors = graph_->raw_neighbors().data();
  args.gather = scaled;
  args.x = x.data();
  args.y = y.data();
  args.walk_weight = 1.0 - laziness_;
  args.laziness = laziness_;
  args.row_scale = inv_sqrt_deg_.data();
  util::parallel_for(0, n, kApplyGrain, [&](std::size_t lo, std::size_t hi) {
    kernels.spmv(args, static_cast<graph::NodeId>(lo), static_cast<graph::NodeId>(hi));
  });
}

std::vector<double> WalkOperator::top_eigenvector() const {
  const auto n = dim();
  const double two_m = static_cast<double>(graph_->num_half_edges());
  const double sqrt_two_m = std::sqrt(two_m);  // loop-invariant
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    // sqrt(deg_i) / sqrt(2m) == 1 / (inv_sqrt_deg_[i] * sqrt(2m))
    v[i] = 1.0 / (inv_sqrt_deg_[i] * sqrt_two_m);
  }
  return v;
}

}  // namespace socmix::linalg
