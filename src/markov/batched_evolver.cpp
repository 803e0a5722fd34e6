#include "markov/batched_evolver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/obs.hpp"

namespace socmix::markov {

BatchedEvolver::BatchedEvolver(const graph::Graph& g, double laziness, std::size_t block)
    : graph_(&g), laziness_(laziness), block_(block) {
  // Prices the lane-state allocation and its first-touch zero fill.
  SOCMIX_TRACE_SPAN("evolver.init");
  const graph::NodeId n = g.num_nodes();
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument{"BatchedEvolver: laziness must be in [0, 1)"};
  }
  if (block != swept_width(block)) {
    throw std::invalid_argument{"BatchedEvolver: block must be 8, 16 or 32"};
  }
  inv_deg_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const graph::NodeId d = g.degree(v);
    if (d == 0) {
      throw std::invalid_argument{
          "BatchedEvolver: graph has an isolated vertex; extract the largest "
          "connected component first"};
    }
    inv_deg_[v] = 1.0 / static_cast<double>(d);
  }
  const std::size_t cells = static_cast<std::size_t>(n) * block_;
  scaled_[0].resize(cells);
  scaled_[1].resize(cells);
  if (laziness_ > 0.0) state_.resize(cells);
}

void BatchedEvolver::seed_point_masses(std::span<const graph::NodeId> sources) {
  if (sources.size() > block_) {
    throw std::invalid_argument{"BatchedEvolver: more sources than lanes"};
  }
  for (const graph::NodeId s : sources) {
    if (s >= dim()) {
      throw std::out_of_range{"BatchedEvolver: source vertex out of range"};
    }
  }
  std::copy(sources.begin(), sources.end(), sources_.begin());
  active_ = sources.size();
  width_ = swept_width(active_);
  steps_ = 0;
  front_ = 0;
  // Lanes [active_, width_) are dead: zeros, which every sweep keeps zero.
  const std::size_t cells = dim() * width_;
  if (!state_.empty()) {
    std::fill_n(state_.begin(), cells, 0.0);
    for (std::size_t b = 0; b < active_; ++b) {
      state_[static_cast<std::size_t>(sources[b]) * width_ + b] = 1.0;
    }
  }
  // s_0: the point mass prescaled, 1.0 * inv_deg[source].
  util::aligned_vector<double>& front = scaled_[front_];
  std::fill_n(front.begin(), cells, 0.0);
  for (std::size_t b = 0; b < active_; ++b) {
    front[static_cast<std::size_t>(sources[b]) * width_ + b] = inv_deg_[sources[b]];
  }
}

void BatchedEvolver::sweep(const double* pi, double* tvd_out) {
  SOCMIX_TRACE_SPAN("evolver.sweep");
  const graph::NodeId n = graph_->num_nodes();

  // Sweep-granular accounting only: the kernels below stay untouched.
  const auto sweep_start = std::chrono::steady_clock::now();

  // One sweep over every row from the front block into the back one, at
  // the swept width: dead lanes cost their share, and gain a TVD nobody
  // reads.
  linalg::simd::SpmmArgs args;
  args.offsets = graph_->offsets().data();
  args.neighbors = graph_->raw_neighbors().data();
  args.inv_deg = inv_deg_.data();
  args.end = n;
  args.lanes = width_;
  args.walk_weight = 1.0 - laziness_;
  args.laziness = laziness_;
  if (pi != nullptr) {
    args.pi = pi;
    args.tvd_out = tvd_.data();
    std::fill_n(tvd_.begin(), width_, 0.0);
  }
  double* lazy_state = state_.empty() ? nullptr : state_.data();
  linalg::simd::dispatch().spmm_f64(args, scaled_[front_].data(), lazy_state,
                                    scaled_[front_ ^ 1].data());
  front_ ^= 1;
  ++steps_;
  if (pi != nullptr) {
    for (std::size_t b = 0; b < active_; ++b) tvd_out[b] = 0.5 * tvd_[b];
  }

  SOCMIX_TIME_OBSERVE("markov.evolver.sweep_seconds",
                      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                    sweep_start)
                          .count());
  SOCMIX_COUNTER_ADD("markov.evolver.sweeps", 1);
  SOCMIX_COUNTER_ADD("markov.evolver.rows_swept", n);
  SOCMIX_COUNTER_ADD("markov.evolver.lane_steps", active_);
  if (pi != nullptr) SOCMIX_COUNTER_ADD("markov.evolver.fused_tvd_sweeps", 1);
}

void BatchedEvolver::step() { sweep(nullptr, nullptr); }

void BatchedEvolver::step_with_tvd(std::span<const double> pi, std::span<double> tvd_out) {
  if (pi.size() != dim()) {
    throw std::invalid_argument{"BatchedEvolver: pi has wrong dimension"};
  }
  if (tvd_out.size() < active_) {
    throw std::invalid_argument{"BatchedEvolver: tvd_out smaller than active lanes"};
  }
  sweep(pi.data(), tvd_out.data());
}

void BatchedEvolver::copy_distribution(std::size_t lane, std::span<double> out) const {
  if (lane >= active_) {
    throw std::out_of_range{"BatchedEvolver: lane not active"};
  }
  if (out.size() != dim()) {
    throw std::invalid_argument{"BatchedEvolver: output has wrong dimension"};
  }
  const std::size_t n = dim();
  if (!state_.empty()) {
    for (std::size_t v = 0; v < n; ++v) out[v] = state_[v * width_ + lane];
    return;
  }
  if (steps_ == 0) {
    std::fill(out.begin(), out.end(), 0.0);
    out[sources_[lane]] = 1.0;
    return;
  }
  // x_t = (1 - laziness) * sum_{i ~ v} s_{t-1}[i]: the sum the last sweep
  // formed, in the same CSR order, from the idle block.
  const double* prev = scaled_[front_ ^ 1].data() + lane;
  const double walk_weight = 1.0 - laziness_;
  const graph::EdgeIndex* offsets = graph_->offsets().data();
  const graph::NodeId* neighbors = graph_->raw_neighbors().data();
  for (std::size_t v = 0; v < n; ++v) {
    double acc = 0.0;
    for (graph::EdgeIndex e = offsets[v]; e < offsets[v + 1]; ++e) {
      acc += prev[static_cast<std::size_t>(neighbors[e]) * width_];
    }
    out[v] = walk_weight * acc;
  }
}

std::vector<double> walk_distribution(const graph::Graph& g, graph::NodeId source,
                                      std::size_t steps, double laziness) {
  BatchedEvolver evolver{g, laziness, BatchedEvolver::swept_width(1)};
  const graph::NodeId seed[] = {source};
  evolver.seed_point_masses(seed);
  for (std::size_t t = 0; t < steps; ++t) evolver.step();
  std::vector<double> out(evolver.dim());
  evolver.copy_distribution(0, out);
  return out;
}

std::vector<double> tvd_trajectory(const graph::Graph& g, graph::NodeId source,
                                   std::size_t max_steps, std::span<const double> pi,
                                   double laziness) {
  BatchedEvolver evolver{g, laziness, BatchedEvolver::swept_width(1)};
  const graph::NodeId seed[] = {source};
  evolver.seed_point_masses(seed);
  std::vector<double> out(max_steps);
  for (std::size_t t = 0; t < max_steps; ++t) {
    evolver.step_with_tvd(pi, std::span<double>{&out[t], 1});
  }
  return out;
}

}  // namespace socmix::markov
