#include "markov/mixing_time.hpp"

#include <algorithm>
#include <array>
#include <atomic>
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

SampledMixing measure_sampled_mixing(const graph::Graph& g,
                                     std::span<const graph::NodeId> sources,
                                     const SampledMixingOptions& options) {
  SOCMIX_TRACE_SPAN("measure_sampled_mixing");
  const std::size_t max_steps = options.max_steps;
  const double laziness = options.laziness;
  const std::size_t num_sources = sources.size();
  std::vector<std::vector<double>> trajectories(num_sources);

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

  // Completed source blocks drive the --progress ETA: every block costs
  // the same max_steps sweeps, so block rate extrapolates directly.
  obs::ProgressMeter progress{"sampled-mixing", num_blocks};
  const auto run_block = [&](BatchedEvolver& evolver, std::size_t blk) {
    SOCMIX_TRACE_SPAN("evolve_block");
    std::array<double, kBlock> tvd{};
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
    resilience::fault_point("block.complete");
    progress.add(1);
  };
  // One evolver per worker, fed blocks from a shared counter: every block
  // is reseeded, so which evolver runs it never changes a bit, and the
  // lane state is allocated once per worker rather than once per block.
  // A failing block drains the counter so the other workers stop too.
  std::atomic<std::size_t> next_block{0};
  const std::size_t workers = std::min(util::thread_count(), num_blocks);
  util::parallel_for(0, workers, 1, [&](std::size_t, std::size_t) {
    std::size_t blk = next_block++;
    if (blk >= num_blocks) return;
    BatchedEvolver evolver{g, laziness, kBlock};
    try {
      for (; blk < num_blocks; blk = next_block++) run_block(evolver, blk);
    } catch (...) {
      next_block = num_blocks;
      throw;
    }
  });
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
