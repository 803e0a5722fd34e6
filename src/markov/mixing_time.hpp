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

#include "graph/frontier.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/shard_pipeline.hpp"
#include "linalg/simd/kernels.hpp"
#include "markov/batched_evolver.hpp"
#include "resilience/checkpoint.hpp"
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

/// The six execution knobs both measurement phases run under, parsed once
/// from --reorder, --frontier, --precision, --sharded, --io-mode (and
/// --pack for `mapped`) by core::engine_options_from_cli. They choose how
/// a measurement is computed, never what it measures.
struct EngineOptions {
  /// Vertex ordering the kernels compute under (--reorder). Both phases
  /// run on the relabeled CSR: eigenvalues are label-invariant, sources are
  /// mapped in, and the per-step TVD scalars are label-invariant up to
  /// summation order, so results match identity ordering within 1e-12 per
  /// step. Outputs are always reported under the caller's original vertex
  /// ids. Checkpoints are keyed on the mode: a snapshot written under a
  /// different ordering is classified stale and recomputed.
  graph::ReorderMode reorder = graph::ReorderMode::kNone;
  /// Adaptive frontier phase of the sampled evolution (--frontier, on by
  /// default): while a source block's support closure covers less than
  /// the policy's row fraction, sweeps touch only those rows —
  /// bit-identical to the dense path, so every parity/resume contract is
  /// unaffected. Folded into the checkpoint context word alongside the
  /// ordering, so a snapshot written under a different frontier mode
  /// classifies stale.
  graph::FrontierPolicy frontier;
  /// Kernel precision of the sampled phase (--precision); the spectral
  /// phase always runs f64. kFloat64 (default) is the exact-parity path:
  /// bit-identical across thread counts, reorder/frontier modes, and simd
  /// kernel tiers. kMixed stores lane state as float32 (half the gather
  /// traffic) with float64 arithmetic and a Neumaier-compensated TVD
  /// reduction; per-step TVD deviates from f64 by at most
  /// linalg::simd::kMixedTvdBudget, and steps whose headline ε-crossing
  /// decision falls inside that band are surfaced via the
  /// markov.sampled.mixed_eps_guard counter. Folded into the checkpoint
  /// context word: foreign-precision snapshots classify stale.
  linalg::simd::Precision precision = linalg::simd::Precision::kFloat64;
  /// Shard-at-a-time evolution (--sharded auto|off|N; auto stays dense
  /// until the CSR exceeds the per-shard byte budget). Resolved against
  /// the active (post-reorder) graph's CSR footprint; when the resolved
  /// count is > 1 both phases sweep one contiguous vertex shard at a time
  /// (spectral: a sharded WalkOperator under Lanczos; sampled: a sharded
  /// BatchedEvolver) — bit-identical to the one-shard sweep for every
  /// shard count; with a mapped container the CSR residency stays near two
  /// shard windows. A non-trivial resolved geometry folds
  /// graph::shard_context_word into the checkpoint context, so a snapshot
  /// written under a foreign shard geometry classifies stale; dense-
  /// geometry runs fold nothing and stay compatible with pre-shard
  /// snapshots.
  graph::ShardPolicy sharded;
  /// The mmap-backed .smxg container `g` was borrowed from (socmix --pack),
  /// or null; must outlive the call. Enables the madvise windowing of the
  /// shard sweeps; ignored (the sweep is identical, minus the paging
  /// hints) when a reordering materializes a new CSR that the mapping no
  /// longer backs. A *compressed* container (headless `g`, see
  /// MappedGraph::compressed()) is mandatory: the shard pipeline decodes
  /// adjacency windows out of it. Compressed runs always stream through
  /// the pipeline (even at one shard), disable the frontier phase (its
  /// closure walk needs in-memory adjacency), and reject reorder modes
  /// other than kNone — none of which changes an output bit versus the
  /// same flags on the dense CSR.
  const graph::sharded::MappedGraph* mapped = nullptr;
  /// Shard window staging discipline (--io-mode sync|prefetch). kPrefetch
  /// stages shard k+1 (page-in, and ADJC decode for compressed containers)
  /// on a dedicated thread while shard k computes. Pure I/O knob: results
  /// are bit-identical either way, so it is *not* folded into the
  /// checkpoint context word — snapshots move freely across io modes.
  linalg::IoMode io_mode = linalg::IoMode::kSync;
};

/// What (g, EngineOptions) resolves to before either phase sweeps: the
/// graph the kernels run on and the shard geometry they sweep it with.
struct ResolvedEngine {
  /// The relabeled CSR under a non-identity ordering; see active().
  graph::ReorderedGraph reordered;
  /// The resolved plan over the active CSR (one shard is the dense path),
  /// plus the mapping and io mode to sweep it with.
  SweepSharding sharding;
  /// The frontier policy, forced off for a headless graph.
  graph::FrontierPolicy frontier;

  [[nodiscard]] const graph::Graph& active(const graph::Graph& g) const noexcept {
    return reordered.active(g);
  }
};

/// The one place the execution knobs meet the graph. Rejects a headless
/// (compressed) graph without its compressed mapping or under a
/// reordering, reorders, and resolves --sharded against the active CSR:
/// a compressed sweep keeps three adjacency copies per staged window in
/// flight (two decoded scratch slots + the mapped ADJC bytes), so the auto
/// formula gets resident_copies = 3, otherwise 2. The mapping is passed on
/// only under identity ordering (a reordering materializes a CSR the
/// mapping no longer backs) and only when the sweep windows several shards
/// or must decode them — a one-shard sweep would release the whole mapping
/// every step. Throws std::invalid_argument on a rejected combination.
[[nodiscard]] ResolvedEngine resolve_engine(const graph::Graph& g,
                                            const EngineOptions& options);

/// Knobs of the sampled sweep: the execution knobs plus the walk itself.
struct SampledMixingOptions : EngineOptions {
  /// Walk-length budget per source (paper plots up to 500).
  std::size_t max_steps = 500;
  /// Lazy-walk parameter in [0, 1); 0 = the paper's simple walk.
  double laziness = 0.0;
  /// Block-granular crash tolerance (dir empty = off): completed source
  /// blocks are snapshotted every `checkpoint.interval` completions, and a
  /// rerun with the same graph/sources/steps/laziness resumes by skipping
  /// them. Resumed results are bit-identical to an uninterrupted run.
  resilience::CheckpointOptions checkpoint;
};

/// Evolves a point mass from each source for max_steps steps and records
/// the TVD trajectory. O(sources * max_steps * m) work, executed in
/// blocks of BatchedEvolver::kDefaultBlock sources per CSR sweep and
/// distributed over the util::parallel pool (--threads / SOCMIX_THREADS).
/// Trajectories are bit-identical for every thread count — and, with
/// checkpointing enabled, across any interrupt/resume schedule.
[[nodiscard]] SampledMixing measure_sampled_mixing(const graph::Graph& g,
                                                   std::span<const graph::NodeId> sources,
                                                   const SampledMixingOptions& options);

/// Convenience overload without checkpointing.
[[nodiscard]] SampledMixing measure_sampled_mixing(const graph::Graph& g,
                                                   std::span<const graph::NodeId> sources,
                                                   std::size_t max_steps,
                                                   double laziness = 0.0);

/// The fingerprint a sampled-mixing checkpoint is keyed on: the graph's
/// structural fingerprint combined with the exact source list, step
/// budget, laziness bits, the engine's block width, and the reorder mode.
/// Always computed on the *original* graph and source ids, so callers can
/// predict snapshot compatibility without materializing the reordering.
[[nodiscard]] std::uint64_t sampled_mixing_fingerprint(
    const graph::Graph& g, std::span<const graph::NodeId> sources,
    std::size_t max_steps, double laziness,
    graph::ReorderMode reorder = graph::ReorderMode::kNone);

/// Uniformly samples `count` distinct sources (all vertices if count >= n).
[[nodiscard]] std::vector<graph::NodeId> pick_sources(const graph::Graph& g,
                                                      std::size_t count, util::Rng& rng);

/// Every vertex as a source — the paper's brute-force mode for the small
/// physics co-authorship graphs.
[[nodiscard]] std::vector<graph::NodeId> all_sources(const graph::Graph& g);

}  // namespace socmix::markov
