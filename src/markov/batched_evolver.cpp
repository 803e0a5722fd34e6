#include "markov/batched_evolver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "linalg/vector_ops.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace socmix::markov {

namespace {

/// scaled[i*stride + b] = cur[i*stride + b] * inv_deg[i] over rows [lo, hi).
/// Each product rounds exactly as a per-edge multiply would, so hoisting
/// it out of the edge loop changes no bits.
void prescale(const double* cur, const double* inv_deg, double* scaled, std::size_t stride,
              std::size_t lanes, graph::NodeId lo, graph::NodeId hi) {
  for (graph::NodeId i = lo; i < hi; ++i) {
    const double w = inv_deg[i];
    const std::size_t base = static_cast<std::size_t>(i) * stride;
    for (std::size_t b = 0; b < lanes; ++b) scaled[base + b] = cur[base + b] * w;
  }
}

}  // namespace

BatchedEvolver::BatchedEvolver(const graph::Graph& g, double laziness, std::size_t block)
    : graph_(&g), laziness_(laziness), block_(block) {
  // Prices the lane-state allocation and its first-touch zero fill.
  SOCMIX_TRACE_SPAN("evolver.init");
  const graph::NodeId n = g.num_nodes();
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument{"BatchedEvolver: laziness must be in [0, 1)"};
  }
  if (block < 1 || block > kMaxBlock) {
    throw std::invalid_argument{"BatchedEvolver: block must be in [1, kMaxBlock]"};
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
  cur_.resize(cells);
  scaled_.resize(cells);
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
  std::fill(cur_.begin(), cur_.end(), 0.0);
  for (std::size_t b = 0; b < sources.size(); ++b) {
    cur_[static_cast<std::size_t>(sources[b]) * block_ + b] = 1.0;
  }
  active_ = sources.size();
}

void BatchedEvolver::sweep(const double* pi, double* tvd_out) {
  SOCMIX_TRACE_SPAN("evolver.sweep");
  const graph::NodeId n = graph_->num_nodes();

  // Sweep-granular accounting only: the kernels below stay untouched.
  const auto sweep_start = std::chrono::steady_clock::now();

  // Prescale pass: one sequential stream over the block.
  prescale(cur_.data(), inv_deg_.data(), scaled_.data(), block_, active_, 0, n);

  // One sweep over every row, in place: each row reads only its own old
  // state and every gather reads the prescaled copy, so overwriting cur
  // row by row changes no bits.
  const linalg::simd::KernelTable& kernels = linalg::simd::dispatch();
  const graph::EdgeIndex* offsets = graph_->offsets().data();
  const graph::NodeId* neighbors = graph_->raw_neighbors().data();
  const bool fused_tvd = pi != nullptr && !single_vector();
  if (single_vector()) {
    linalg::simd::SpmvArgs v;
    v.offsets = offsets;
    v.neighbors = neighbors;
    v.gather = scaled_.data();
    v.x = cur_.data();
    v.y = cur_.data();
    v.walk_weight = 1.0 - laziness_;
    v.laziness = laziness_;
    // Rows partition across the pool; each y[j] comes from one thread
    // with a fixed accumulation order, so any thread count gives the same
    // bits. Inside a parallel region (one block per worker) this runs
    // inline.
    util::parallel_for(0, n, kRowGrain, [&](std::size_t lo, std::size_t hi) {
      kernels.spmv(v, static_cast<graph::NodeId>(lo), static_cast<graph::NodeId>(hi));
    });
  } else {
    // The kernel dispatches internally on the *active* lane count; stride
    // stays block_, so partially filled blocks (the tail of an odd source
    // list) still hit a wide kernel when their lane count is a supported
    // width.
    linalg::simd::SpmmArgs args;
    args.offsets = offsets;
    args.neighbors = neighbors;
    args.end = n;
    args.stride = block_;
    args.lanes = active_;
    args.walk_weight = 1.0 - laziness_;
    args.laziness = laziness_;
    if (fused_tvd) {
      args.pi = pi;
      args.tvd_out = tvd_out;
      std::fill_n(tvd_out, active_, 0.0);
    }
    kernels.spmm_f64(args, scaled_.data(), cur_.data(), cur_.data());
  }

  if (fused_tvd) {
    for (std::size_t b = 0; b < active_; ++b) tvd_out[b] = 0.5 * tvd_out[b];
  } else if (pi != nullptr && active_ == 1) {
    // One lane: the state is a plain vector, and total_variation sums the
    // same ascending-row terms from 0.0 and halves once — the same bits.
    tvd_out[0] = linalg::total_variation({cur_.data(), cur_.size()}, {pi, n});
  }

  SOCMIX_TIME_OBSERVE("markov.evolver.sweep_seconds",
                      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                    sweep_start)
                          .count());
  SOCMIX_COUNTER_ADD("markov.evolver.sweeps", 1);
  SOCMIX_COUNTER_ADD("markov.evolver.rows_swept", n);
  SOCMIX_COUNTER_ADD("markov.evolver.lane_steps", active_);
  if (active_ == 4 || active_ == 8 || active_ == 16 || active_ == 32) {
    SOCMIX_COUNTER_ADD("markov.evolver.sweeps_unrolled", 1);
  } else {
    SOCMIX_COUNTER_ADD("markov.evolver.sweeps_generic", 1);
  }
  if (fused_tvd) SOCMIX_COUNTER_ADD("markov.evolver.fused_tvd_sweeps", 1);
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
  for (std::size_t v = 0; v < n; ++v) out[v] = cur_[v * block_ + lane];
}

std::vector<double> walk_distribution(const graph::Graph& g, graph::NodeId source,
                                      std::size_t steps, double laziness) {
  BatchedEvolver evolver{g, laziness, 1};
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
  BatchedEvolver evolver{g, laziness, 1};
  const graph::NodeId seed[] = {source};
  evolver.seed_point_masses(seed);
  std::vector<double> out(max_steps);
  for (std::size_t t = 0; t < max_steps; ++t) {
    evolver.step_with_tvd(pi, std::span<double>{&out[t], 1});
  }
  return out;
}

}  // namespace socmix::markov
