// Mixing time measurement — the paper's two methods (§3.3).
//
// Method 1 (spectral): bound T(eps) from the SLEM mu via Theorem 2:
//     mu/(2(1-mu)) * ln(1/2eps)  <=  T(eps)  <=  (ln n + ln 1/eps)/(1-mu).
// The lower bound can be read either as "walk length needed for eps" or,
// inverted, as "variation distance guaranteed not yet achieved at length t":
//     eps_lb(t) = 0.5 * exp(-2 t (1-mu)/mu).
//
// Method 2 (sampled): evolve a point mass from each sampled source, record
// the TVD to pi after every step, and aggregate over sources: per-source
// mixing times, source CDFs at fixed walk lengths (Figs 3-4), and
// percentile curves of TVD vs walk length (Figs 5-7).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "util/retired_knob.hpp"
#include "util/rng.hpp"

namespace socmix::markov {

// ---------------------------------------------------------------- bounds --

/// Spectral bounds on T(eps) derived from the SLEM (natural logarithms,
/// matching Sinclair's formulation used by the paper).
struct SpectralBounds {
  double mu = 0.0;

  /// Lower bound on T(eps): mu / (2(1-mu)) * ln(1/(2 eps)).
  [[nodiscard]] double lower(double eps) const noexcept;

  /// Upper bound on T(eps): (ln n + ln(1/eps)) / (1 - mu).
  [[nodiscard]] double upper(double eps, std::uint64_t n) const noexcept;

  /// Inversion of lower(): the eps for which t walk steps are the lower
  /// bound, i.e. eps_lb(t) = 0.5 exp(-2 t (1-mu)/mu). This is the
  /// "Lower-bound" series the paper draws in Figs 5-7.
  [[nodiscard]] double epsilon_at(double t) const noexcept;
};

// --------------------------------------------------------------- sampled --

/// Sentinel step count meaning "TVD never dropped below eps within budget".
inline constexpr std::size_t kNotMixed = std::numeric_limits<std::size_t>::max();

/// The paper's headline variation-distance threshold for T(eps). The CLI
/// default, the bench defaults, and the markov.sampled.tvd_crossings
/// counter all read this one constant so the observability layer can
/// never drift from the reported mixing-time epsilon.
inline constexpr double kHeadlineEpsilon = 0.1;

/// Full sampled measurement: TVD trajectories from each source.
class SampledMixing {
 public:
  SampledMixing(std::vector<graph::NodeId> sources,
                std::vector<std::vector<double>> tvd_per_source);

  [[nodiscard]] std::size_t num_sources() const noexcept { return sources_.size(); }
  [[nodiscard]] std::size_t max_steps() const noexcept { return max_steps_; }
  [[nodiscard]] std::span<const graph::NodeId> sources() const noexcept { return sources_; }

  /// TVD after t steps (t in [1, max_steps]) from source index s.
  [[nodiscard]] double tvd(std::size_t s, std::size_t t) const noexcept {
    return tvd_[s][t - 1];
  }

  /// All sources' TVD at walk length t, in source order.
  [[nodiscard]] std::vector<double> tvd_at(std::size_t t) const;

  /// Per-source mixing time: min t with TVD < eps, or kNotMixed.
  [[nodiscard]] std::size_t mixing_time(std::size_t s, double eps) const noexcept;

  /// Paper Definition 1 restricted to the sampled sources: the max
  /// per-source mixing time (a lower bound on the true T(eps)).
  [[nodiscard]] std::size_t worst_mixing_time(double eps) const noexcept;

  /// Mean per-source mixing time, counting unmixed sources as max_steps
  /// (a conservative floor). Also reports how many sources never mixed.
  struct Average {
    double mean_steps = 0.0;
    std::size_t unmixed_sources = 0;
  };
  [[nodiscard]] Average average_mixing_time(double eps) const noexcept;

  /// Empirical CDF of TVD over sources at a fixed walk length: returns the
  /// sorted TVD values (x of the CDF; y is rank/n). Figures 3-4.
  [[nodiscard]] std::vector<double> sorted_tvd_at(std::size_t t) const;

  /// Percentile aggregation the paper uses in Figs 5-7: at each t, the
  /// mean TVD of the best `top_fraction`, a mid band, and the worst band.
  struct PercentileCurves {
    std::vector<double> top;     ///< mean of best (lowest-TVD) band
    std::vector<double> median;  ///< mean of middle band
    std::vector<double> bottom;  ///< mean of worst (highest-TVD) band
    std::vector<double> mean;    ///< plain mean over all sources
    std::vector<double> max;     ///< worst single source
  };
  [[nodiscard]] PercentileCurves percentile_curves(double top_fraction = 0.10,
                                                   double mid_fraction = 0.20,
                                                   double bottom_fraction = 0.10) const;

 private:
  std::vector<graph::NodeId> sources_;
  std::vector<std::vector<double>> tvd_;  // [source][t-1]
  std::size_t max_steps_ = 0;
};

/// The execution knobs both measurement phases once ran under. Every one
/// is retired: a measurement runs one way, on one resident CSR, whatever
/// the input. perfbench/ still copies these fields; delete the struct with
/// the next benchmark change. Nothing reads them.
struct EngineOptions {
  /// Retired --reorder: the ordering is the stored graph's.
  util::RetiredKnob reorder;
  /// Retired --frontier: every sweep is dense.
  util::RetiredKnob frontier;
  /// Retired --precision: both phases run f64.
  util::RetiredKnob precision;
  /// Retired --sharded: no engine shards the CSR.
  graph::ShardPolicy sharded;
  /// The pack the graph was loaded from; a compressed pack is decoded
  /// when it is opened, so the measurement never needs it.
  const graph::sharded::MappedGraph* mapped = nullptr;
  /// Retired --io-mode: no pack is staged.
  util::RetiredKnob io_mode;
};

/// Knobs of the sampled sweep: the walk itself.
struct SampledMixingOptions : EngineOptions {
  /// Walk-length budget per source (paper plots up to 500).
  std::size_t max_steps = 500;
  /// Lazy-walk parameter in [0, 1); 0 = the paper's simple walk.
  double laziness = 0.0;
};

/// Evolves a point mass from each source for max_steps steps and records
/// the TVD trajectory. O(sources * max_steps * m) work, executed in
/// blocks of BatchedEvolver::kDefaultBlock sources per CSR sweep and
/// distributed over the util::parallel pool (--threads / SOCMIX_THREADS).
/// Trajectories are bit-identical for every thread count.
[[nodiscard]] SampledMixing measure_sampled_mixing(const graph::Graph& g,
                                                   std::span<const graph::NodeId> sources,
                                                   const SampledMixingOptions& options);

/// Convenience overload for the walk knobs alone.
[[nodiscard]] SampledMixing measure_sampled_mixing(const graph::Graph& g,
                                                   std::span<const graph::NodeId> sources,
                                                   std::size_t max_steps,
                                                   double laziness = 0.0);

/// Uniformly samples `count` distinct sources (all vertices if count >= n).
[[nodiscard]] std::vector<graph::NodeId> pick_sources(const graph::Graph& g,
                                                      std::size_t count, util::Rng& rng);

/// Every vertex as a source — the paper's brute-force mode for the small
/// physics co-authorship graphs.
[[nodiscard]] std::vector<graph::NodeId> all_sources(const graph::Graph& g);

}  // namespace socmix::markov
