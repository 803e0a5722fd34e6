#include "markov/mixing_time.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/vector_ops.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/stationary.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace socmix::markov {

// ---------------------------------------------------------------- bounds --

double SpectralBounds::lower(double eps) const noexcept {
  if (mu <= 0.0 || mu >= 1.0 || eps <= 0.0) {
    // mu >= 1: disconnected/periodic chain never mixes; report +inf.
    if (mu >= 1.0) return std::numeric_limits<double>::infinity();
    return 0.0;
  }
  return mu / (2.0 * (1.0 - mu)) * std::log(1.0 / (2.0 * eps));
}

double SpectralBounds::upper(double eps, std::uint64_t n) const noexcept {
  if (mu >= 1.0) return std::numeric_limits<double>::infinity();
  if (eps <= 0.0 || n == 0) return std::numeric_limits<double>::infinity();
  return (std::log(static_cast<double>(n)) + std::log(1.0 / eps)) / (1.0 - mu);
}

double SpectralBounds::epsilon_at(double t) const noexcept {
  if (mu <= 0.0) return 0.0;
  if (mu >= 1.0) return 0.5;
  return 0.5 * std::exp(-2.0 * t * (1.0 - mu) / mu);
}

// --------------------------------------------------------------- sampled --

SampledMixing::SampledMixing(std::vector<graph::NodeId> sources,
                             std::vector<std::vector<double>> tvd_per_source)
    : sources_(std::move(sources)), tvd_(std::move(tvd_per_source)) {
  if (sources_.size() != tvd_.size()) {
    throw std::invalid_argument{"SampledMixing: sources/trajectories size mismatch"};
  }
  for (const auto& traj : tvd_) {
    if (max_steps_ == 0) max_steps_ = traj.size();
    if (traj.size() != max_steps_) {
      throw std::invalid_argument{"SampledMixing: ragged trajectories"};
    }
  }
}

std::vector<double> SampledMixing::tvd_at(std::size_t t) const {
  std::vector<double> out(num_sources());
  for (std::size_t s = 0; s < out.size(); ++s) out[s] = tvd(s, t);
  return out;
}

std::size_t SampledMixing::mixing_time(std::size_t s, double eps) const noexcept {
  const auto& traj = tvd_[s];
  for (std::size_t t = 0; t < traj.size(); ++t) {
    if (traj[t] < eps) return t + 1;
  }
  return kNotMixed;
}

std::size_t SampledMixing::worst_mixing_time(double eps) const noexcept {
  std::size_t worst = 0;
  for (std::size_t s = 0; s < num_sources(); ++s) {
    const std::size_t t = mixing_time(s, eps);
    if (t == kNotMixed) return kNotMixed;
    worst = std::max(worst, t);
  }
  return worst;
}

SampledMixing::Average SampledMixing::average_mixing_time(double eps) const noexcept {
  Average out;
  if (num_sources() == 0) return out;
  double sum = 0.0;
  for (std::size_t s = 0; s < num_sources(); ++s) {
    const std::size_t t = mixing_time(s, eps);
    if (t == kNotMixed) {
      ++out.unmixed_sources;
      sum += static_cast<double>(max_steps_);
    } else {
      sum += static_cast<double>(t);
    }
  }
  out.mean_steps = sum / static_cast<double>(num_sources());
  return out;
}

std::vector<double> SampledMixing::sorted_tvd_at(std::size_t t) const {
  std::vector<double> values = tvd_at(t);
  std::sort(values.begin(), values.end());
  return values;
}

SampledMixing::PercentileCurves SampledMixing::percentile_curves(
    double top_fraction, double mid_fraction, double bottom_fraction) const {
  PercentileCurves out;
  const std::size_t ns = num_sources();
  if (ns == 0 || max_steps_ == 0) return out;
  out.top.resize(max_steps_);
  out.median.resize(max_steps_);
  out.bottom.resize(max_steps_);
  out.mean.resize(max_steps_);
  out.max.resize(max_steps_);

  const auto band_count = [ns](double fraction) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(fraction * static_cast<double>(ns)));
  };
  const std::size_t k_top = band_count(top_fraction);
  const std::size_t k_mid = band_count(mid_fraction);
  const std::size_t k_bot = band_count(bottom_fraction);

  std::vector<double> values(ns);
  for (std::size_t t = 1; t <= max_steps_; ++t) {
    for (std::size_t s = 0; s < ns; ++s) values[s] = tvd(s, t);
    std::sort(values.begin(), values.end());

    const auto mean_of = [&](std::size_t begin, std::size_t count) {
      const double sum = std::accumulate(values.begin() + static_cast<std::ptrdiff_t>(begin),
                                         values.begin() + static_cast<std::ptrdiff_t>(begin + count),
                                         0.0);
      return sum / static_cast<double>(count);
    };

    out.top[t - 1] = mean_of(0, k_top);
    out.median[t - 1] = mean_of((ns - k_mid) / 2, k_mid);
    out.bottom[t - 1] = mean_of(ns - k_bot, k_bot);
    out.mean[t - 1] = mean_of(0, ns);
    out.max[t - 1] = values.back();
  }
  return out;
}

namespace {

// The checkpoint context word the retired --precision knob folded for its
// f64 default (its mixed mode folded 1).
constexpr std::uint64_t kPrecisionWordF64 = 0;

// The non-graph half of the checkpoint fingerprint, shared between the
// public entry point (which hashes the CSR) and the compressed path
// (which substitutes the container's pack-time fingerprint).
std::uint64_t mixing_fingerprint_from(std::uint64_t h,
                                      std::span<const graph::NodeId> sources,
                                      std::size_t max_steps, double laziness) {
  h = util::hash_combine(h, sources.size());
  for (const graph::NodeId s : sources) h = util::hash_combine(h, s);
  h = util::hash_combine(h, max_steps);
  h = util::hash_combine(h, std::bit_cast<std::uint64_t>(laziness));
  h = util::hash_combine(h, BatchedEvolver::kDefaultBlock);
  h = util::hash_combine(h, util::kReorderNoneWord);
  return h;
}

}  // namespace

std::uint64_t sampled_mixing_fingerprint(const graph::Graph& g,
                                         std::span<const graph::NodeId> sources,
                                         std::size_t max_steps, double laziness) {
  return mixing_fingerprint_from(graph::structural_fingerprint(g), sources, max_steps,
                                 laziness);
}

SweepSharding resolve_engine(const graph::Graph& g, const EngineOptions& options) {
  // In-memory graphs and raw packs sweep their CSR as one shard.
  if (!g.headless()) return {graph::ShardPlan::single(g.num_nodes()), nullptr};
  // Compressed containers hand us a headless CSR (offsets only): the
  // adjacency exists solely as ADJC blocks the shard pipeline decodes on
  // the fly, so the mapping is not optional.
  if (options.mapped == nullptr || !options.mapped->compressed()) {
    throw std::invalid_argument{
        "a headless graph needs its compressed MappedGraph "
        "(EngineOptions::mapped)"};
  }
  const std::uint32_t shards =
      graph::resolve_shard_count(options.sharded, g.memory_bytes(), g.num_nodes(), 3u);
  return {graph::ShardPlan::balanced(g.offsets(), shards), options.mapped};
}

SampledMixing measure_sampled_mixing(const graph::Graph& g,
                                     std::span<const graph::NodeId> sources,
                                     const SampledMixingOptions& options) {
  SOCMIX_TRACE_SPAN("measure_sampled_mixing");
  const std::size_t max_steps = options.max_steps;
  const double laziness = options.laziness;
  const std::size_t num_sources = sources.size();
  std::vector<std::vector<double>> trajectories(num_sources);

  const SweepSharding sharding = resolve_engine(g, options);
  const bool headless = g.headless();
  const std::vector<double> pi = stationary_distribution(g);

  // Sources are evolved B at a time by a BatchedEvolver (one CSR sweep per
  // step serves the whole block) and the blocks are distributed across the
  // thread pool. Each lane runs the exact scalar floating-point sequence
  // and every block is independent, so trajectories are bit-identical for
  // any thread count — including the old one-source-at-a-time path.
  constexpr std::size_t kBlock = BatchedEvolver::kDefaultBlock;
  const std::size_t num_blocks = (num_sources + kBlock - 1) / kBlock;
  // Sources of the block starting at source `first`: at most kBlock, as a
  // value. std::min returns a reference, and in a sanitizer build its
  // operands sit in instrumented stack slots, which hides the bound from
  // GCC (it then warns -Warray-bounds on the tvd[b] reads below).
  const auto block_lanes = [num_sources](std::size_t first) -> std::size_t {
    const std::size_t left = num_sources - first;
    return left < kBlock ? left : kBlock;
  };
  SOCMIX_COUNTER_ADD("markov.sampled.runs", 1);
  SOCMIX_COUNTER_ADD("markov.sampled.sources", num_sources);
  SOCMIX_COUNTER_ADD("markov.sampled.source_blocks", num_blocks);

  // Crash tolerance: completed blocks are checkpointed, and restored
  // blocks are replayed from their stored (bit-exact) trajectories instead
  // of being recomputed, so resume composes with the determinism contract.
  // The context word versions the knobs that change how results are
  // produced: the words the retired reorder, frontier and precision knobs
  // folded at their defaults (frontier `auto` folded 0 on a headless
  // graph, where it was always forced off) — so default snapshots of
  // earlier builds still restore, while their --frontier off or fraction
  // snapshots and mixed-precision ones (precision word 1) classify stale
  // once and recompute (--reorder rcm|degree|bfs also changed the
  // fingerprint, so those classify foreign). A snapshot from a foreign
  // combination classifies stale, not corrupt.
  // Shard geometry: resolve_engine sized it against the CSR of a
  // compressed pack. One shard is the dense path — no context word, so
  // pre-shard snapshots stay compatible.
  const std::uint32_t resolved_shards = sharding.plan.num_shards();
  SOCMIX_GAUGE_SET("markov.sampled.shards", resolved_shards);
  std::uint64_t context = util::hash_combine(
      util::hash_combine(util::kReorderNoneWord, headless ? 0 : util::kFrontierAutoWord),
      kPrecisionWordF64);
  const std::uint64_t shard_word = graph::shard_context_word(resolved_shards);
  if (shard_word != 0) context = util::hash_combine(context, shard_word);
  // A headless graph's structural fingerprint would sample an empty
  // neighbor span; the container carries the pack-time fingerprint of the
  // full CSR, which is what keeps compressed checkpoints interchangeable
  // with dense/uncompressed ones. Window staging is absent from the
  // context word (results are bit-identical either way, like threads).
  const std::uint64_t graph_word =
      headless ? options.mapped->fingerprint() : graph::structural_fingerprint(g);
  resilience::BlockCheckpoint checkpoint{
      options.checkpoint,
      mixing_fingerprint_from(graph_word, sources, max_steps, laziness), num_blocks,
      context};
  std::vector<std::size_t> pending;
  pending.reserve(num_blocks);
  if (checkpoint.enabled()) checkpoint.restore();
  for (std::size_t blk = 0; blk < num_blocks; ++blk) {
    if (!checkpoint.is_restored(blk)) {
      pending.push_back(blk);
      continue;
    }
    const std::vector<double>& payload = checkpoint.restored_payload(blk);
    const std::size_t first = blk * kBlock;
    const std::size_t lanes = block_lanes(first);
    if (payload.size() != lanes * max_steps) {  // shape drift: recompute
      pending.push_back(blk);
      continue;
    }
    for (std::size_t b = 0; b < lanes; ++b) {
      const auto begin = payload.begin() + static_cast<std::ptrdiff_t>(b * max_steps);
      trajectories[first + b].assign(begin, begin + static_cast<std::ptrdiff_t>(max_steps));
    }
  }

  // Completed source blocks drive the --progress ETA: every block costs
  // the same max_steps sweeps, so block rate extrapolates directly.
  obs::ProgressMeter progress{"sampled-mixing", num_blocks};
  // Checkpoint-restored blocks are seeded, not added: they count toward
  // done/percent but not the rate, so the ETA after a resume reflects this
  // run's throughput instead of collapsing toward zero.
  progress.seed_restored(num_blocks - pending.size());
  const auto run_block = [&](BatchedEvolver& evolver, std::size_t p) {
    SOCMIX_TRACE_SPAN("evolve_block");
    std::array<double, kBlock> tvd{};
    const std::size_t blk = pending[p];
    const std::size_t first = blk * kBlock;
    const std::size_t lanes = block_lanes(first);
    evolver.seed_point_masses(sources.subspan(first, lanes));
    for (std::size_t b = 0; b < lanes; ++b) {
      trajectories[first + b].reserve(max_steps);
    }
    // Lanes whose TVD has not yet dropped below the paper's headline
    // epsilon (markov.sampled.tvd_crossings counts first crossings).
    std::uint32_t above_eps = (lanes >= 32 ? 0xffffffffu : (1u << lanes) - 1u);
    for (std::size_t t = 0; t < max_steps; ++t) {
      evolver.step_with_tvd(pi, tvd);
      for (std::size_t b = 0; b < lanes; ++b) {
        trajectories[first + b].push_back(tvd[b]);
        if ((above_eps & (1u << b)) != 0 && tvd[b] < kHeadlineEpsilon) {
          above_eps &= ~(1u << b);
          SOCMIX_COUNTER_ADD("markov.sampled.tvd_crossings", 1);
        }
      }
    }
    SOCMIX_COUNTER_ADD("markov.sampled.steps", lanes * max_steps);
    // The block is complete the moment its checkpoint record lands; the
    // fault site sits before record() so an abort here loses exactly the
    // blocks not yet recorded — the scenario resume must cover.
    resilience::fault_point("block.complete");
    if (checkpoint.enabled()) {
      std::vector<double> payload;
      payload.reserve(lanes * max_steps);
      for (std::size_t b = 0; b < lanes; ++b) {
        payload.insert(payload.end(), trajectories[first + b].begin(),
                       trajectories[first + b].end());
      }
      checkpoint.record(blk, std::move(payload));
    }
    progress.add(1);
  };
  // One evolver per worker, fed blocks from a shared counter: every block
  // is reseeded, so which evolver runs it never changes a bit, and the
  // lane state is allocated once per worker rather than once per block.
  // A failing block drains the counter so the other workers stop too.
  std::atomic<std::size_t> next_block{0};
  const std::size_t workers = std::min(util::thread_count(), pending.size());
  util::parallel_for(0, workers, 1, [&](std::size_t, std::size_t) {
    std::size_t p = next_block++;
    if (p >= pending.size()) return;
    BatchedEvolver evolver{g, laziness, kBlock, sharding};
    try {
      for (; p < pending.size(); p = next_block++) run_block(evolver, p);
    } catch (...) {
      next_block = pending.size();
      throw;
    }
  });
  checkpoint.finalize();
  progress.finish();
  return SampledMixing{{sources.begin(), sources.end()}, std::move(trajectories)};
}

SampledMixing measure_sampled_mixing(const graph::Graph& g,
                                     std::span<const graph::NodeId> sources,
                                     std::size_t max_steps, double laziness) {
  SampledMixingOptions options;
  options.max_steps = max_steps;
  options.laziness = laziness;
  return measure_sampled_mixing(g, sources, options);
}

std::vector<graph::NodeId> pick_sources(const graph::Graph& g, std::size_t count,
                                        util::Rng& rng) {
  const graph::NodeId n = g.num_nodes();
  if (count >= n) return all_sources(g);
  // Partial Fisher-Yates for distinct uniform picks.
  std::vector<graph::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), graph::NodeId{0});
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(n - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(count);
  return ids;
}

std::vector<graph::NodeId> all_sources(const graph::Graph& g) {
  std::vector<graph::NodeId> ids(g.num_nodes());
  std::iota(ids.begin(), ids.end(), graph::NodeId{0});
  return ids;
}

}  // namespace socmix::markov
