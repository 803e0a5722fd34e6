#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "bench_harness/harness.hpp"
#include "bench_harness/provenance.hpp"
#include "obs/export.hpp"
#include "obs/progress.hpp"
#include "obs/sampler.hpp"
#include "resilience/fault.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace socmix::core {

ExperimentConfig ExperimentConfig::from_cli(const util::Cli& cli) {
  ExperimentConfig config;
  config.scale = cli.get_positive_f64("scale", 1.0);
  config.sources = cli.get_count("sources", 0);
  config.max_steps = cli.get_count("steps", 0);
  config.seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));
  config.threads = cli.get_count("threads", 0);
  util::set_thread_count(config.threads);
  // Stamp the perf-relevant flags so any BENCH_*.json this driver emits
  // records what it actually ran with. (Recording flags on an unconfigured
  // harness is inert.)
  bench::Harness& harness = bench::Harness::process();
  harness.set_flag("scale", cli.get("scale", "1"));
  harness.set_flag("threads", std::to_string(util::thread_count()));
  refuse_engine_knobs(cli);
  configure_observability(cli);
  configure_faults(cli);
  return config;
}

ExperimentConfig ExperimentConfig::from_cli_or_exit(const util::Cli& cli) {
  try {
    return from_cli(cli);
  } catch (const std::invalid_argument& e) {
    std::cerr << std::filesystem::path{cli.program()}.filename().string() << ": "
              << e.what() << '\n';
    std::exit(1);
  }
}

MeasurementOptions ExperimentConfig::measurement_options() const {
  MeasurementOptions options;
  options.seed = seed;
  return options;
}

namespace {

/// Retired flags, refused by name whatever the value rather than silently
/// ignored.
struct RefusedFlag {
  const char* flag;
  const char* reason;
};
constexpr RefusedFlag kRefusedFlags[] = {
    {"precision", "retired; both phases always run f64"},
    {"io-mode", "retired; no pack is staged: each is one resident CSR"},
    {"frontier", "retired; every sweep is dense, and random routes walk hop-major"},
    {"reorder",
     "retired; vertex ordering is a property of the stored graph: pack it once with "
     "`graph_pack --reorder rcm` and measure the pack"},
    {"sharded",
     "retired; every graph is swept as one resident CSR, a compressed pack decoded "
     "once when it is opened"},
    {"checkpoint-dir", "retired; every measurement runs to completion, with no resume"},
    {"checkpoint-interval", "retired; every measurement runs to completion, with no resume"},
};

}  // namespace

void refuse_engine_knobs(const util::Cli& cli) {
  for (const RefusedFlag& refused : kRefusedFlags) {
    if (cli.has(refused.flag)) {
      throw std::invalid_argument{std::string{"--"} + refused.flag + ": " +
                                  refused.reason};
    }
  }
}

void configure_observability(const util::Cli& cli) {
  // Checked even without --sample-out, so a bad value never passes silently.
  const std::size_t interval_ms = cli.get_positive("sample-interval-ms", 100);
  const std::string metrics = cli.get("metrics-out", "");
  const std::string trace = cli.get("trace-out", "");
  const std::string sample = cli.get("sample-out", "");
  obs::set_metrics_out(metrics);
  obs::set_trace_out(trace);
  obs::set_progress_enabled(cli.get_flag("progress"));
  // Every snapshot (JSON and CSV) carries git/build/compiler/simd-tier
  // provenance from here on; cheap, so unconditional.
  bench::apply_metrics_provenance();
  if (!sample.empty()) {
    obs::SamplerOptions options;
    options.path = sample;
    options.interval_ms = interval_ms;
    obs::start_process_sampler(std::move(options));
  }
  if (!metrics.empty() || !trace.empty() || !sample.empty()) obs::flush_on_exit();
}

void configure_faults(const util::Cli& cli) {
  resilience::configure_faults_from_env();
  const std::string fault = cli.get("fault-inject", "");
  if (!fault.empty()) resilience::arm_fault(fault);
}

int exit_status(const util::Cli& cli) {
  std::uint64_t unconverged = 0;
  for (const auto& counter : obs::Registry::instance().snapshot().counters) {
    if (counter.name == "linalg.lanczos.unconverged") unconverged = counter.value;
  }
  if (unconverged == 0) return 0;
  std::cerr << std::filesystem::path{cli.program()}.filename().string()
            << ": error: lanczos-unconverged: " << unconverged
            << " spectral solve(s) did not converge\n";
  return kExitUnconverged;
}

graph::Graph build_scaled_dataset(const gen::DatasetSpec& spec,
                                  const ExperimentConfig& config) {
  const double nodes =
      std::max(64.0, config.scale * static_cast<double>(spec.default_nodes));
  constexpr auto kMaxNodes =
      static_cast<double>(std::numeric_limits<graph::NodeId>::max());
  if (!(config.scale > 0.0) || !(nodes <= kMaxNodes)) {
    throw std::invalid_argument{"--scale=" + util::fmt_auto(config.scale) +
                                ": expected a positive number that keeps " + spec.name +
                                " within " + util::fmt_auto(kMaxNodes) + " nodes"};
  }
  return gen::build_dataset(spec, static_cast<graph::NodeId>(nodes), config.seed);
}

std::vector<double> figure_epsilon_grid() {
  // Log-spaced from 0.25 down to 1e-4, ~4 points per decade, matching the
  // x-range of the paper's Figs 1-2.
  std::vector<double> grid;
  for (double eps = 0.25; eps >= 0.9e-4; eps /= 1.77827941) {  // 10^(1/4)
    grid.push_back(eps);
  }
  return grid;
}

std::vector<std::size_t> short_walk_lengths() { return {1, 5, 10, 20, 40}; }

std::vector<std::size_t> long_walk_lengths() { return {80, 100, 200, 300, 400, 500}; }

void emit_series(const std::string& title, const std::string& x_caption,
                 const std::vector<Series>& series, const std::string& csv_name) {
  std::cout << "\n== " << title << " ==\n";
  if (series.empty()) return;

  util::TextTable table;
  std::vector<std::string> header{x_caption};
  for (const Series& s : series) header.push_back(s.name);
  table.header(std::move(header));

  const std::size_t points = series.front().x.size();
  for (std::size_t i = 0; i < points; ++i) {
    std::vector<std::string> row{util::fmt_auto(series.front().x[i])};
    for (const Series& s : series) {
      row.push_back(i < s.y.size() ? util::fmt_auto(s.y[i]) : "");
    }
    table.row(std::move(row));
  }
  table.print(std::cout);

  if (const auto dir = util::bench_results_dir()) {
    util::CsvWriter csv{*dir + "/" + csv_name + ".csv"};
    std::vector<std::string> head{x_caption};
    for (const Series& s : series) head.push_back(s.name);
    csv.row(head);
    for (std::size_t i = 0; i < points; ++i) {
      std::vector<std::string> row{util::fmt_sci(series.front().x[i], 6)};
      for (const Series& s : series) {
        row.push_back(i < s.y.size() ? util::fmt_sci(s.y[i], 6) : "");
      }
      csv.row(row);
    }
  }
}

std::string summarize(const MixingReport& report) {
  std::string out = report.name + ": n=" + util::with_commas(static_cast<std::int64_t>(report.nodes)) +
                    " m=" + util::with_commas(static_cast<std::int64_t>(report.edges));
  if (report.spectral_ran) {
    out += " mu=" + util::fmt_fixed(report.slem, 6) +
           " (lambda2=" + util::fmt_fixed(report.lambda2, 6) +
           ", lambda_min=" + util::fmt_fixed(report.lambda_min, 6) +
           ", iters=" + std::to_string(report.lanczos_iterations) +
           (report.spectral_converged ? "" : ", UNCONVERGED") + ")";
  }
  return out;
}

std::string mark_unconverged(std::string text, const MixingReport& report) {
  if (report.spectral_ran && !report.spectral_converged) text += " UNCONVERGED";
  return text;
}

}  // namespace socmix::core
