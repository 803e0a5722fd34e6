#include "markov/batched_evolver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace socmix::markov {

namespace {

/// scaled[i*stride + b] = cur[i*stride + b] * inv_deg[i] over rows [lo, hi).
/// Each product rounds exactly as a per-edge multiply would, so hoisting
/// it out of the edge loop changes no bits. Mixed precision widens each
/// f32 cell to f64, multiplies, and rounds the product once — elementwise,
/// so identical in every kernel tier.
template <typename T>
void prescale(const T* cur, const double* inv_deg, T* scaled, std::size_t stride,
              std::size_t lanes, graph::NodeId lo, graph::NodeId hi) {
  for (graph::NodeId i = lo; i < hi; ++i) {
    const double w = inv_deg[i];
    const std::size_t base = static_cast<std::size_t>(i) * stride;
    for (std::size_t b = 0; b < lanes; ++b) {
      scaled[base + b] = static_cast<T>(static_cast<double>(cur[base + b]) * w);
    }
  }
}

}  // namespace

BatchedEvolver::BatchedEvolver(const graph::Graph& g, double laziness, std::size_t block,
                               graph::FrontierPolicy frontier,
                               linalg::simd::Precision precision, SweepSharding sharding)
    : graph_(&g), mapped_(sharding.mapped), plan_(std::move(sharding.plan)),
      laziness_(laziness), block_(block), precision_(precision), policy_(frontier) {
  const graph::NodeId n = g.num_nodes();
  if (plan_.bounds.empty()) plan_ = graph::ShardPlan::single(n);
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument{"BatchedEvolver: laziness must be in [0, 1)"};
  }
  if (block < 1 || block > kMaxBlock) {
    throw std::invalid_argument{"BatchedEvolver: block must be in [1, kMaxBlock]"};
  }
  if (policy_.enabled() &&
      !(policy_.row_fraction() > 0.0 && policy_.row_fraction() <= 1.0)) {
    throw std::invalid_argument{"BatchedEvolver: frontier threshold must be in (0, 1]"};
  }
  if (g.headless() && policy_.enabled()) {
    throw std::invalid_argument{
        "BatchedEvolver: the frontier optimization needs in-memory adjacency; "
        "disable it for compressed containers"};
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
  if (precision_ == linalg::simd::Precision::kMixed) {
    cur32_.resize(cells);
    next32_.resize(cells);
    scaled32_.resize(cells);
  } else {
    cur_.resize(cells);
    next_.resize(cells);
    scaled_.resize(cells);
  }
  if (policy_.enabled()) {
    frontier_ = graph::FrontierSet{n};
    switch_rows_ = std::max<graph::NodeId>(
        1, static_cast<graph::NodeId>(policy_.row_fraction() * static_cast<double>(n)));
  }
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
  pipeline_ = std::make_unique<linalg::ShardPipeline>(g, plan_, mapped_, sharding.io_mode);
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
  const auto reseed = [&](auto& cur, auto& next, auto& scaled) {
    using T = typename std::remove_reference_t<decltype(cur)>::value_type;
    if (policy_.enabled()) {
      // Frontier invariant: every row outside the closure must hold exactly
      // +0.0 in all three buffers (the sparse kernels neither write nor
      // prescale it, and gathers may read it). Fresh buffers already do;
      // afterwards only the rows the previous run touched — its final
      // closure, or everything once it went dense — need re-zeroing.
      if (dense_dirty_) {
        std::fill(cur.begin(), cur.end(), T{0});
        std::fill(next.begin(), next.end(), T{0});
        std::fill(scaled.begin(), scaled.end(), T{0});
        dense_dirty_ = false;
      } else if (seeded_) {
        for (const graph::RowRange r : frontier_.ranges()) {
          const auto lo = static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r.begin) * block_);
          const auto hi = static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r.end) * block_);
          std::fill(cur.begin() + lo, cur.begin() + hi, T{0});
          std::fill(next.begin() + lo, next.begin() + hi, T{0});
          std::fill(scaled.begin() + lo, scaled.begin() + hi, T{0});
        }
      }
      frontier_.reset(sources);
      sparse_phase_ = true;
    } else {
      std::fill(cur.begin(), cur.end(), T{0});
    }
    for (std::size_t b = 0; b < sources.size(); ++b) {
      cur[static_cast<std::size_t>(sources[b]) * block_ + b] = T{1};
    }
  };
  if (precision_ == linalg::simd::Precision::kMixed) {
    reseed(cur32_, next32_, scaled32_);
  } else {
    reseed(cur_, next_, scaled_);
  }
  active_ = sources.size();
  seeded_ = true;
  steps_since_seed_ = 0;
  switch_step_ = 0;
  rows_swept_ = 0;
}

void BatchedEvolver::sweep_rows(const linalg::ShardWindow& w,
                                std::span<const graph::RowRange> rows,
                                linalg::simd::SpmmArgs args) {
  // A decoded window is kernel-local: rows [0, end-begin), offsets indexing
  // the scratch neighbors. The streamed state blocks are rebased by begin
  // rows while the gather source stays absolute (neighbor ids are
  // absolute). Same per-row FP sequence, shifted pointers — bit-identical
  // by construction. The frontier is off there (enforced at construction),
  // so the shard's rows are the whole window.
  const graph::RowRange local{0, w.end - w.begin};
  if (w.local) {
    args.n = local.end;
    rows = {&local, 1};
  }
  const std::size_t bias = w.local ? static_cast<std::size_t>(w.begin) * block_ : 0;
  args.offsets = w.offsets;
  args.neighbors = w.neighbors;
  args.ranges = rows.data();
  args.num_ranges = rows.size();
  const linalg::simd::KernelTable& kernels = linalg::simd::dispatch();
  if (single_vector()) {
    linalg::simd::SpmvArgs v;
    v.offsets = w.offsets;
    v.neighbors = w.neighbors;
    v.gather = scaled_.data();
    v.x = cur_.data() + bias;
    v.y = next_.data() + bias;
    v.walk_weight = args.walk_weight;
    v.laziness = args.laziness;
    // Rows partition across the pool; each next[j] comes from one thread
    // with a fixed accumulation order, so any thread count gives the same
    // bits. Inside a parallel region (one block per worker) this runs
    // inline.
    for (const graph::RowRange r : rows) {
      util::parallel_for(r.begin, r.end, kRowGrain, [&](std::size_t lo, std::size_t hi) {
        kernels.spmv(v, static_cast<graph::NodeId>(lo), static_cast<graph::NodeId>(hi));
      });
    }
  } else if (precision_ == linalg::simd::Precision::kMixed) {
    kernels.spmm_mixed(args, scaled32_.data(), cur32_.data() + bias, next32_.data() + bias);
  } else {
    kernels.spmm_f64(args, scaled_.data(), cur_.data() + bias, next_.data() + bias);
  }
}

void BatchedEvolver::sweep(const double* pi, double* tvd_out) {
  SOCMIX_TRACE_SPAN("evolver.sweep");
  const graph::NodeId n = graph_->num_nodes();
  const bool mixed = precision_ == linalg::simd::Precision::kMixed;

#if SOCMIX_OBS_ENABLED
  // Sweep-granular accounting only: the kernels below stay untouched.
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto faults_before = mapped_ != nullptr ? graph::sharded::process_page_faults()
                                                : graph::sharded::PageFaults{};
  std::size_t max_window_bytes = 0;
#endif

  // Frontier phase: grow the support closure first (next can be nonzero
  // only inside S_{t+1} = S_t ∪ N(S_t)), then retire the sparse phase for
  // good once the closure reaches the policy's row fraction.
  bool use_frontier = sparse_phase_;
  if (use_frontier) {
    frontier_.expand(*graph_);
    if (frontier_.covered_rows() >= switch_rows_) {
      sparse_phase_ = false;
      use_frontier = false;
      switch_step_ = steps_since_seed_ + 1;
      SOCMIX_COUNTER_ADD("markov.frontier.switches", 1);
      SOCMIX_GAUGE_SET("markov.frontier.switch_step", switch_step_);
    }
  }
  // The rows this sweep computes: the closure while sparse, else all.
  const graph::RowRange all_rows{0, n};
  const std::span<const graph::RowRange> swept_ranges =
      use_frontier ? frontier_.ranges() : std::span<const graph::RowRange>{&all_rows, 1};

  // Prescale pass: one sequential stream over the block. In the frontier
  // phase only closure rows are prescaled; the rest of scaled already
  // holds the +0.0 the dense prescale would produce (seed invariant).
  for (const graph::RowRange r : swept_ranges) {
    if (mixed) {
      prescale(cur32_.data(), inv_deg_.data(), scaled32_.data(), block_, active_,
               r.begin, r.end);
    } else {
      prescale(cur_.data(), inv_deg_.data(), scaled_.data(), block_, active_, r.begin,
               r.end);
    }
  }

  // Shard loop. Every shard sweep is a range-driven SpMM over the shard's
  // rows: the range kernels run the same per-row body as a full sweep, so
  // grouping rows by shard changes no bits. Window staging (advise-ahead,
  // prefetch thread, ADJC decode) lives in the pipeline; each acquired
  // window holds the identical neighbor sequence, so io-mode and
  // compression change no bits either. The kernel dispatches internally on
  // the *active* lane count; stride stays block_, so partially filled
  // blocks (the tail of an odd source list) still hit a wide kernel when
  // their lane count is a supported width. The TVD is fused only when one
  // kernel call covers every row in ascending order.
  const bool fused_tvd = pi != nullptr && plan_.num_shards() == 1 && !single_vector();
  linalg::simd::SpmmArgs args;
  args.n = n;
  args.stride = block_;
  args.lanes = active_;
  args.walk_weight = 1.0 - laziness_;
  args.laziness = laziness_;
  if (fused_tvd) {
    args.pi = pi;
    args.tvd_out = tvd_out;
  }
  const std::uint32_t shards = plan_.num_shards();
  for (std::uint32_t s = 0; s < shards; ++s) {
    const graph::NodeId lo = plan_.begin(s);
    const graph::NodeId hi = plan_.end(s);
    const linalg::ShardWindow w = pipeline_->acquire(s);
    // The swept ranges clipped to [lo, hi); sorted disjoint stays sorted
    // disjoint under clipping.
    shard_ranges_.clear();
    for (const graph::RowRange r : swept_ranges) {
      const graph::NodeId begin = std::max(r.begin, lo);
      const graph::NodeId end = std::min(r.end, hi);
      if (begin < end) shard_ranges_.push_back({begin, end});
    }
    if (fused_tvd || !shard_ranges_.empty()) sweep_rows(w, shard_ranges_, args);
#if SOCMIX_OBS_ENABLED
    if (mapped_ != nullptr && !shard_ranges_.empty()) {
      max_window_bytes =
          std::max(max_window_bytes, mapped_->window_bytes(shard_ranges_.front().begin,
                                                           shard_ranges_.back().end));
    }
#endif
  }
  pipeline_->finish_sweep();

  // Deferred TVD: one ascending-row pass over the stored next state,
  // bit-identical to the fused reduction (see linalg::simd::tvd_*).
  if (pi != nullptr && !fused_tvd) {
    if (mixed) {
      linalg::simd::tvd_mixed(next32_.data(), block_, active_, pi, n, tvd_out);
    } else {
      linalg::simd::tvd_f64(next_.data(), block_, active_, pi, n, tvd_out);
    }
  }
  if (mixed) {
    cur32_.swap(next32_);
  } else {
    cur_.swap(next_);
  }
  if (!use_frontier) dense_dirty_ = true;
  ++steps_since_seed_;
  const graph::NodeId swept = use_frontier ? frontier_.covered_rows() : n;
  rows_swept_ += swept;

#if SOCMIX_OBS_ENABLED
  SOCMIX_TIME_OBSERVE("markov.evolver.sweep_seconds",
                      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                    sweep_start)
                          .count());
  SOCMIX_COUNTER_ADD("markov.evolver.sweeps", 1);
  SOCMIX_COUNTER_ADD("markov.evolver.rows_swept", swept);
  SOCMIX_COUNTER_ADD("markov.evolver.lane_steps", active_);
  if (active_ == 4 || active_ == 8 || active_ == 16 || active_ == 32) {
    SOCMIX_COUNTER_ADD("markov.evolver.sweeps_unrolled", 1);
  } else {
    SOCMIX_COUNTER_ADD("markov.evolver.sweeps_generic", 1);
  }
  if (mixed) SOCMIX_COUNTER_ADD("markov.evolver.sweeps_mixed", 1);
  if (fused_tvd) SOCMIX_COUNTER_ADD("markov.evolver.fused_tvd_sweeps", 1);
  if (policy_.enabled()) {
    if (use_frontier) {
      SOCMIX_COUNTER_ADD("markov.frontier.sweeps_sparse", 1);
      SOCMIX_COUNTER_ADD("markov.frontier.rows_swept", swept);
      SOCMIX_COUNTER_ADD("markov.frontier.rows_skipped", n - swept);
    } else {
      SOCMIX_COUNTER_ADD("markov.frontier.sweeps_dense", 1);
    }
  }
  if (sharded_) {
    const std::size_t state_bytes = mixed ? sizeof(float) : sizeof(double);
    SOCMIX_COUNTER_ADD("markov.shard.sweeps", 1);
    SOCMIX_COUNTER_ADD("markov.shard.shards_swept", shards);
    // Cross-shard gather traffic of a dense sweep: every boundary half-edge
    // reads one foreign lane row of the prescaled state.
    SOCMIX_COUNTER_ADD("markov.shard.boundary_bytes",
                       boundary_half_edges_ * active_ * state_bytes);
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
  if (precision_ == linalg::simd::Precision::kMixed) {
    for (std::size_t v = 0; v < n; ++v) {
      out[v] = static_cast<double>(cur32_[v * block_ + lane]);
    }
  } else {
    for (std::size_t v = 0; v < n; ++v) out[v] = cur_[v * block_ + lane];
  }
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
                                   double laziness, graph::FrontierPolicy frontier) {
  BatchedEvolver evolver{g, laziness, 1, frontier};
  const graph::NodeId seed[] = {source};
  evolver.seed_point_masses(seed);
  std::vector<double> out(max_steps);
  for (std::size_t t = 0; t < max_steps; ++t) {
    evolver.step_with_tvd(pi, std::span<double>{&out[t], 1});
  }
  return out;
}

}  // namespace socmix::markov
