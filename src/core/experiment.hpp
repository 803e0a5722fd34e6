// Experiment harness shared by the figure/table benches.
//
// Centralizes what every reproduction binary needs: dataset construction
// at a CLI-chosen scale, the paper's epsilon and walk-length grids, and
// consistent emission of series as aligned text + CSV.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/measurement.hpp"
#include "gen/datasets.hpp"
#include "graph/graph.hpp"
#include "markov/mixing_time.hpp"
#include "resilience/checkpoint.hpp"
#include "util/cli.hpp"

namespace socmix::core {

/// Scale/seed/source knobs common to all experiment drivers, parsed from
/// --scale, --sources, --steps, --seed, --threads.
struct ExperimentConfig {
  /// Multiplier on each dataset's default node count; 1.0 = bench default.
  /// The paper-scale run uses whatever reaches spec.paper_nodes.
  double scale = 1.0;
  std::size_t sources = 0;      ///< 0 = per-experiment default
  std::size_t max_steps = 0;    ///< 0 = per-experiment default
  std::uint64_t seed = 42;
  /// Worker threads for the parallel evolution/SpMV kernels; 0 defers to
  /// SOCMIX_THREADS, then hardware concurrency. Results are bit-identical
  /// for every value — this is purely a speed knob.
  std::size_t threads = 0;
  /// Checkpoint/resume for the long sweeps, parsed from --checkpoint-dir /
  /// --checkpoint-interval (dir empty = off).
  resilience::CheckpointOptions checkpoint;

  /// Parses the CLI and applies `threads` to the global util::parallel
  /// pool, so every driver honors --threads with no further wiring. The
  /// retired execution knobs are refused (refuse_engine_knobs).
  /// Also calls configure_observability (--metrics-out / --trace-out /
  /// --progress) and configure_resilience (--checkpoint-dir /
  /// --checkpoint-interval / --fault-inject), so those flags work in every
  /// driver. Throws std::invalid_argument on a malformed or refused value
  /// or a --scale that is not a positive number.
  [[nodiscard]] static ExperimentConfig from_cli(const util::Cli& cli);

  /// from_cli for a driver's main: on a malformed or refused flag, prints
  /// "<program>: <message>" to stderr and exits 1 instead of throwing.
  [[nodiscard]] static ExperimentConfig from_cli_or_exit(const util::Cli& cli);

  /// Measurement options carrying this config's seed and checkpoint;
  /// drivers set the walk budget and phases on top.
  [[nodiscard]] MeasurementOptions measurement_options() const;
};

/// No command takes an execution knob: every measurement sweeps one
/// resident CSR, and random routes (socmix sybil, fig8) have no evolver.
/// Throws std::invalid_argument naming the first retired knob passed —
/// --sharded, --reorder (whose message names `graph_pack --reorder rcm`),
/// --precision, --io-mode or --frontier — whatever its value.
void refuse_engine_knobs(const util::Cli& cli);

/// Wires the shared observability flags into the obs layer:
///   --metrics-out=PATH        metrics snapshot at exit (JSON; CSV if *.csv)
///   --trace-out=PATH          Chrome trace_event JSON of recorded spans
///   --sample-out=PATH         in-run JSONL time-series of the metrics
///                             registry + /proc/self (obs::Sampler)
///   --sample-interval-ms=N    sampling period (default 100; 0 throws)
///   --progress                coarse progress + ETA on stderr
/// Also stamps the metrics exporter with build provenance (git, build
/// type, compiler, SIMD tier) so every snapshot records its environment.
/// Registers the exit-time flush when any output is requested. Drivers that
/// go through ExperimentConfig::from_cli get this for free; tools that parse
/// their own Cli call it directly.
void configure_observability(const util::Cli& cli);

/// Wires the shared resilience flags:
///   --checkpoint-dir=DIR      snapshot completed sweep blocks into DIR
///   --checkpoint-interval=N   write every N completed blocks (default 8;
///                             0 throws)
///   --fault-inject=SPEC       arm a deterministic fault (<site>:<nth>
///                             [:abort|:error]; see resilience/fault.hpp);
///                             the SOCMIX_FAULT env var is honored too,
///                             with the flag taking precedence
/// Returns the parsed checkpoint options. Drivers that go through
/// ExperimentConfig::from_cli get this for free.
[[nodiscard]] resilience::CheckpointOptions configure_resilience(const util::Cli& cli);

/// Builds a Table-1 stand-in at config.scale times its default size (at
/// least 64 nodes) and returns its largest connected component. Throws
/// std::invalid_argument naming --scale when the scale is not positive or
/// the node count would overflow NodeId.
[[nodiscard]] graph::Graph build_scaled_dataset(const gen::DatasetSpec& spec,
                                                const ExperimentConfig& config);

/// The paper's epsilon grid for Figs 1-2 (log-spaced 0.25 .. 1e-4).
[[nodiscard]] std::vector<double> figure_epsilon_grid();

/// The paper's short walk lengths (Fig 3) and long walk lengths (Fig 4).
[[nodiscard]] std::vector<std::size_t> short_walk_lengths();
[[nodiscard]] std::vector<std::size_t> long_walk_lengths();

/// One named data series (a line in one of the paper's plots).
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Prints a family of series sharing an x-grid as one aligned text table
/// with the given x-column caption, and mirrors it to
/// bench_results/<csv_name>.csv when writable.
void emit_series(const std::string& title, const std::string& x_caption,
                 const std::vector<Series>& series, const std::string& csv_name);

/// Human-readable one-line summary of a report (used by several benches).
[[nodiscard]] std::string summarize(const MixingReport& report);

}  // namespace socmix::core
