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

BatchedEvolver::BatchedEvolver(const graph::Graph& g, double laziness, std::size_t block,
                               SweepSharding sharding)
    : graph_(&g), mapped_(sharding.mapped), plan_(std::move(sharding.plan)),
      laziness_(laziness), block_(block) {
  // Prices the lane-state allocation and its first-touch zero fill.
  SOCMIX_TRACE_SPAN("evolver.init");
  const graph::NodeId n = g.num_nodes();
  if (plan_.bounds.empty()) plan_ = graph::ShardPlan::single(n);
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument{"BatchedEvolver: laziness must be in [0, 1)"};
  }
  if (block < 1 || block > kMaxBlock) {
    throw std::invalid_argument{"BatchedEvolver: block must be in [1, kMaxBlock]"};
  }
  if (plan_.dim() != n || plan_.num_shards() == 0) {
    throw std::invalid_argument{"BatchedEvolver: plan does not cover the graph"};
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
  sharded_ = plan_.num_shards() > 1 || mapped_ != nullptr;
#if SOCMIX_OBS_ENABLED
  if (sharded_) {
    // One sequential CSR pass; prices the boundary-exchange metric. A
    // headless view has no in-memory adjacency to walk — the metric reads
    // 0 there rather than decoding the whole container to price it.
    if (!g.headless()) boundary_half_edges_ = graph::count_boundary_half_edges(g, plan_);
    SOCMIX_GAUGE_SET("markov.shard.count", plan_.num_shards());
    SOCMIX_GAUGE_SET("markov.shard.boundary_half_edges", boundary_half_edges_);
  }
#endif
  pipeline_ = std::make_unique<linalg::ShardPipeline>(g, plan_, mapped_);
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

void BatchedEvolver::sweep_window(const linalg::ShardWindow& w,
                                  linalg::simd::SpmmArgs args) {
  // A decoded window is kernel-local: rows [0, end-begin), offsets indexing
  // the scratch neighbors. The streamed state and pi are rebased by begin
  // rows while the gather source stays absolute (neighbor ids are
  // absolute). Same per-row FP sequence, shifted pointers — bit-identical
  // by construction.
  const std::size_t row_bias = w.local ? static_cast<std::size_t>(w.begin) : 0;
  double* state = cur_.data() + row_bias * block_;
  args.begin = w.local ? 0 : w.begin;
  args.end = w.local ? w.end - w.begin : w.end;
  args.offsets = w.offsets;
  args.neighbors = w.neighbors;
  if (args.pi != nullptr) args.pi += row_bias;
  const linalg::simd::KernelTable& kernels = linalg::simd::dispatch();
  if (single_vector()) {
    linalg::simd::SpmvArgs v;
    v.offsets = w.offsets;
    v.neighbors = w.neighbors;
    v.gather = scaled_.data();
    v.x = state;
    v.y = state;
    v.walk_weight = args.walk_weight;
    v.laziness = args.laziness;
    // Rows partition across the pool; each y[j] comes from one thread
    // with a fixed accumulation order, so any thread count gives the same
    // bits. Inside a parallel region (one block per worker) this runs
    // inline.
    util::parallel_for(args.begin, args.end, kRowGrain,
                       [&](std::size_t lo, std::size_t hi) {
                         kernels.spmv(v, static_cast<graph::NodeId>(lo),
                                      static_cast<graph::NodeId>(hi));
                       });
  } else {
    kernels.spmm_f64(args, scaled_.data(), state, state);
  }
}

void BatchedEvolver::sweep(const double* pi, double* tvd_out) {
  SOCMIX_TRACE_SPAN("evolver.sweep");
  const graph::NodeId n = graph_->num_nodes();

#if SOCMIX_OBS_ENABLED
  // Sweep-granular accounting only: the kernels below stay untouched.
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto faults_before = mapped_ != nullptr ? graph::sharded::process_page_faults()
                                                : graph::sharded::PageFaults{};
  std::size_t max_window_bytes = 0;
#endif

  // Prescale pass: one sequential stream over the block.
  prescale(cur_.data(), inv_deg_.data(), scaled_.data(), block_, active_, 0, n);

  // Shard loop. Every shard sweep is one SpMM call over the shard's
  // contiguous rows, in place: each row reads only its own old state and
  // every gather reads the prescaled copy, so overwriting cur row by row
  // changes no bits. The kernel runs the same per-row body as a full
  // sweep and carries the TVD as a running sum across the ascending shard
  // calls, so grouping rows by shard changes no bits either. Window
  // staging (advise-ahead, prefetch thread, ADJC decode) lives in the
  // pipeline; each acquired window holds the identical neighbor sequence,
  // so staging and compression change no bits. The kernel dispatches
  // internally on the *active* lane count; stride stays block_, so
  // partially filled blocks (the tail of an odd source list) still hit a
  // wide kernel when their lane count is a supported width.
  const bool fused_tvd = pi != nullptr && !single_vector();
  linalg::simd::SpmmArgs args;
  args.stride = block_;
  args.lanes = active_;
  args.walk_weight = 1.0 - laziness_;
  args.laziness = laziness_;
  if (fused_tvd) {
    args.pi = pi;
    args.tvd_out = tvd_out;
    std::fill_n(tvd_out, active_, 0.0);
  }
  const std::uint32_t shards = plan_.num_shards();
  for (std::uint32_t s = 0; s < shards; ++s) {
    const linalg::ShardWindow w = pipeline_->acquire(s);
    sweep_window(w, args);
#if SOCMIX_OBS_ENABLED
    if (mapped_ != nullptr) {
      max_window_bytes =
          std::max(max_window_bytes, mapped_->window_bytes(w.begin, w.end));
    }
#endif
  }
  pipeline_->finish_sweep();

  if (fused_tvd) {
    for (std::size_t b = 0; b < active_; ++b) tvd_out[b] = 0.5 * tvd_out[b];
  } else if (pi != nullptr && active_ == 1) {
    // One lane: the state is a plain vector, and total_variation sums the
    // same ascending-row terms from 0.0 and halves once — the same bits.
    tvd_out[0] = linalg::total_variation({cur_.data(), cur_.size()}, {pi, n});
  }

#if SOCMIX_OBS_ENABLED
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
  if (sharded_) {
    SOCMIX_COUNTER_ADD("markov.shard.sweeps", 1);
    SOCMIX_COUNTER_ADD("markov.shard.shards_swept", shards);
    // Cross-shard gather traffic of a dense sweep: every boundary half-edge
    // reads one foreign lane row of the prescaled state.
    SOCMIX_COUNTER_ADD("markov.shard.boundary_bytes",
                       boundary_half_edges_ * active_ * sizeof(double));
    if (mapped_ != nullptr) {
      const auto faults_after = graph::sharded::process_page_faults();
      SOCMIX_COUNTER_ADD("markov.shard.mmap_minor_faults",
                         faults_after.minor - faults_before.minor);
      SOCMIX_COUNTER_ADD("markov.shard.mmap_major_faults",
                         faults_after.major - faults_before.major);
    }
    if (max_window_bytes > 0) {
      SOCMIX_GAUGE_SET("markov.shard.window_bytes", max_window_bytes);
    }
  }
#endif
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
