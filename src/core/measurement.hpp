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

#include "graph/graph.hpp"
#include "linalg/lanczos.hpp"
#include "markov/mixing_time.hpp"

namespace socmix::core {

/// One measurement: the sampled sweep's knobs (walk and checkpoint) plus
/// the source sample and the spectral solve. When checkpoint.name is empty it
/// is derived from the measurement name, so multi-dataset drivers sharing
/// one --checkpoint-dir keep distinct snapshots.
struct MeasurementOptions : markov::SampledMixingOptions {
  /// Sampled-measurement sources (paper uses 1000); 0 disables sampling.
  std::size_t sources = 1000;
  /// Brute-force every vertex as a source (paper's mode for the physics
  /// graphs); overrides `sources`.
  bool all_sources = false;
  /// Spectral solve configuration.
  linalg::LanczosOptions lanczos;
  /// Whether to run the (cheap) spectral and (expensive) sampled parts.
  bool spectral = true;
  bool sampled = true;
  std::uint64_t seed = 42;
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
  /// Explicit ||N y - theta y|| of the worse extremal Ritz pair; above
  /// linalg::kLanczosCertificateSlack * tolerance the run is unconverged.
  double lanczos_certified_residual = 0.0;

  // Sampled results (present when sampling ran).
  std::optional<markov::SampledMixing> sampled;
  /// Sampled TVD points that contradict the theory (see
  /// count_oracle_violations); mirrored into markov.sampled.oracle_violations.
  /// Anything but 0 means µ was underestimated or the evolution is wrong.
  std::uint64_t oracle_violations = 0;

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

/// Rounding slack of the TVD oracles below.
inline constexpr double kOracleSlack = 1e-12;

/// Checks the sampled trajectories in `report` (measured on `g` under
/// `laziness`) against two theorems and returns how many points break
/// them, each allowing kOracleSlack:
///   * TVD never rises along a trajectory (P contracts TV distance and
///     πP = π) — always checked;
///   * TVD(t) <= ½·√((1−π(x))/π(x))·µ^t from source x, the ℓ² spectral
///     bound for a reversible chain with SLEM µ (Levin–Peres–Wilmer
///     Ch. 12), with µ the walk's own (lazy) SLEM — checked when the
///     spectral phase ran.
[[nodiscard]] std::uint64_t count_oracle_violations(const graph::Graph& g,
                                                    const MixingReport& report,
                                                    double laziness);

/// Measures `g` (assumed connected — run graph::largest_component first if
/// unsure; throws on isolated vertices).
[[nodiscard]] MixingReport measure_mixing(const graph::Graph& g, std::string name,
                                          const MeasurementOptions& options);

}  // namespace socmix::core
