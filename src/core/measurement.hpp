// High-level mixing-time measurement — the paper's contribution as an API.
//
// One call measures a social graph the way §3.3 prescribes:
//   1. extract the largest connected component,
//   2. compute the SLEM mu by deflated Lanczos and derive the Theorem-2
//      bounds on T(eps),
//   3. sample initial distributions and evolve them, producing per-source
//      TVD trajectories and their percentile aggregation.
//
// Example:
//   const auto report = core::measure_mixing(g, "Physics 1", {});
//   std::cout << report.slem << " "
//             << report.bounds().lower(0.1) << " "
//             << report.sampled->worst_mixing_time(0.1) << "\n";
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "graph/frontier.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "linalg/lanczos.hpp"
#include "markov/mixing_time.hpp"

namespace socmix::core {

struct MeasurementOptions {
  /// Sampled-measurement sources (paper uses 1000); 0 disables sampling.
  std::size_t sources = 1000;
  /// Walk-length budget per source (paper plots up to 500).
  std::size_t max_steps = 500;
  /// Brute-force every vertex as a source (paper's mode for the physics
  /// graphs); overrides `sources`.
  bool all_sources = false;
  /// Lazy-walk parameter in [0, 1); 0 = the paper's simple walk.
  double laziness = 0.0;
  /// Spectral solve configuration.
  linalg::LanczosOptions lanczos;
  /// Whether to run the (cheap) spectral and (expensive) sampled parts.
  bool spectral = true;
  bool sampled = true;
  std::uint64_t seed = 42;
  /// Crash tolerance for the sampled sweep (dir empty = off): completed
  /// source blocks are snapshotted to checkpoint.dir and an interrupted
  /// run resumes bit-identically. When checkpoint.name is empty it is
  /// derived from the measurement name, so multi-dataset drivers sharing
  /// one --checkpoint-dir keep distinct snapshots.
  resilience::CheckpointOptions checkpoint;
  /// Vertex ordering both phases compute under (--reorder). The spectral
  /// operator and the sampled walks run on the relabeled CSR; eigenvalues
  /// are label-invariant and TVD scalars match identity ordering within
  /// summation-order tolerance, so reported results are ordering-agnostic.
  graph::ReorderMode reorder = graph::ReorderMode::kNone;
  /// Adaptive frontier phase of the sampled evolution (--frontier). While a
  /// walk's reachable set is small the evolver sweeps only those rows;
  /// results are bit-identical on or off — purely a speed knob.
  graph::FrontierPolicy frontier;
  /// Kernel precision of the sampled phase (--precision). f64 (default) is
  /// the exact-parity path; mixed halves the walk-state gather traffic by
  /// storing distributions as float32 while accumulating TVD in
  /// compensated float64 (per-step error bounded by
  /// linalg::simd::kMixedTvdBudget). The spectral phase always runs f64.
  linalg::simd::Precision precision = linalg::simd::Precision::kFloat64;
  /// Shard-at-a-time out-of-core evolution (--sharded auto|off|N). When
  /// the policy resolves to > 1 shards against the measured CSR, both
  /// phases sweep the graph one contiguous vertex shard at a time
  /// (spectral: a sharded WalkOperator under Lanczos; sampled: a sharded
  /// BatchedEvolver) — bit-identical to the dense engines for any
  /// shard count; with a mapped container the CSR residency stays near
  /// two shard windows.
  graph::ShardPolicy sharded;
  /// The mmap-backed .smxg container `g` was borrowed from (socmix
  /// --pack), or null. Enables the madvise windowing of the shard sweeps;
  /// must outlive the call. Ignored under a non-identity reordering,
  /// which materializes a CSR the mapping no longer backs. A compressed
  /// container (headless `g`) is mandatory, forces the sharded engines in
  /// both phases (the dense kernels need the absent neighbor array),
  /// disables the frontier phase, and requires --reorder none.
  const graph::sharded::MappedGraph* mapped = nullptr;
  /// Shard window staging discipline of both phases (--io-mode
  /// sync|prefetch). Prefetch overlaps shard k+1's page-in/decode with
  /// shard k's compute on a dedicated thread; results are bit-identical
  /// either way.
  linalg::IoMode io_mode = linalg::IoMode::kSync;
};

/// Everything the paper reports about one graph.
struct MixingReport {
  std::string name;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;

  // Spectral results (valid when `spectral_ran`).
  bool spectral_ran = false;
  bool spectral_converged = false;
  double slem = 0.0;
  double lambda2 = 0.0;
  double lambda_min = 0.0;
  std::size_t lanczos_iterations = 0;

  // Sampled results (present when sampling ran).
  std::optional<markov::SampledMixing> sampled;

  // Phase wall-clock seconds, mirrored into the obs gauges
  // core.phase.spectral_seconds / core.phase.sampled_seconds — the single
  // source of truth drivers report timing from (no per-driver stopwatches).
  double spectral_seconds = 0.0;
  double sampled_seconds = 0.0;

  /// Theorem-2 bound evaluator for this graph's mu.
  [[nodiscard]] markov::SpectralBounds bounds() const noexcept { return {slem}; }

  /// Lower bound on T(eps) per eq. (4).
  [[nodiscard]] double lower_bound(double eps) const noexcept {
    return bounds().lower(eps);
  }

  /// Upper bound on T(eps) per eq. (4).
  [[nodiscard]] double upper_bound(double eps) const noexcept {
    return bounds().upper(eps, nodes);
  }
};

/// Measures `g` (assumed connected — run graph::largest_component first if
/// unsure; throws on isolated vertices).
[[nodiscard]] MixingReport measure_mixing(const graph::Graph& g, std::string name,
                                          const MeasurementOptions& options);

}  // namespace socmix::core
