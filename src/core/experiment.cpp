#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
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
  config.scale = cli.get_f64("scale", 1.0);
  config.sources = static_cast<std::size_t>(cli.get_i64("sources", 0));
  config.max_steps = static_cast<std::size_t>(cli.get_i64("steps", 0));
  config.seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));
  config.threads = static_cast<std::size_t>(cli.get_i64("threads", 0));
  util::set_thread_count(config.threads);
  // Stamp the perf-relevant flags (engine_options_from_cli adds the knobs)
  // so any BENCH_*.json this driver emits records what it actually ran
  // with. (Recording flags on an unconfigured harness is inert.)
  bench::Harness& harness = bench::Harness::process();
  harness.set_flag("scale", cli.get("scale", "1"));
  harness.set_flag("threads", std::to_string(util::thread_count()));
  config.engine = engine_options_from_cli(cli);
  configure_observability(cli);
  config.checkpoint = configure_resilience(cli);
  return config;
}

MeasurementOptions ExperimentConfig::measurement_options() const {
  MeasurementOptions options;
  static_cast<markov::EngineOptions&>(options) = engine;
  options.seed = seed;
  options.checkpoint = checkpoint;
  return options;
}

namespace {

/// Reads --<flag> (absent = `fallback`), parses it, and stamps the value
/// on the process bench harness; throws naming the flag on a bad value.
template <typename Parse>
auto parse_knob(const util::Cli& cli, const std::string& flag, const char* fallback,
                Parse parse, const std::string& expected) {
  const std::string value = cli.get(flag, fallback);
  const auto parsed = parse(value);
  if (!parsed) {
    throw std::invalid_argument{"--" + flag + "=" + value + ": expected " + expected};
  }
  bench::Harness::process().set_flag(flag, value);
  return *parsed;
}

graph::FrontierPolicy frontier_from_cli(const util::Cli& cli) {
  return parse_knob(cli, "frontier", "auto", graph::parse_frontier_policy,
                    "auto, off, or a row fraction in (0, 1]");
}

}  // namespace

markov::EngineOptions engine_options_from_cli(const util::Cli& cli) {
  markov::EngineOptions engine;
  engine.reorder = parse_knob(cli, "reorder", "none", graph::parse_reorder_mode,
                              "one of none, degree, rcm, bfs");
  engine.frontier = frontier_from_cli(cli);
  engine.precision = parse_knob(cli, "precision", "f64", linalg::simd::parse_precision,
                                "f64 or mixed");
  engine.sharded = parse_knob(cli, "sharded", "auto", graph::parse_shard_policy,
                              "auto, off, or a shard count in [1, " +
                                  std::to_string(graph::ShardPolicy::kMaxShards) + "]");
  engine.io_mode = parse_knob(cli, "io-mode", "sync", linalg::parse_io_mode,
                              "sync or prefetch");
  return engine;
}

graph::FrontierPolicy route_frontier_from_cli(const util::Cli& cli) {
  for (const char* flag : {"reorder", "sharded", "precision", "io-mode"}) {
    if (cli.has(flag)) {
      throw std::invalid_argument{std::string{"--"} + flag +
                                  ": random routes take only --frontier; this "
                                  "knob changes no admission work"};
    }
  }
  return frontier_from_cli(cli);
}

void configure_observability(const util::Cli& cli) {
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
    options.interval_ms = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, cli.get_i64("sample-interval-ms", 100)));
    obs::start_process_sampler(std::move(options));
  }
  if (!metrics.empty() || !trace.empty() || !sample.empty()) obs::flush_on_exit();
}

resilience::CheckpointOptions configure_resilience(const util::Cli& cli) {
  resilience::CheckpointOptions checkpoint;
  checkpoint.dir = cli.get("checkpoint-dir", "");
  checkpoint.interval =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_i64("checkpoint-interval", 8)));
  resilience::configure_faults_from_env();
  const std::string fault = cli.get("fault-inject", "");
  if (!fault.empty()) resilience::arm_fault(fault);
  return checkpoint;
}

graph::Graph build_scaled_dataset(const gen::DatasetSpec& spec,
                                  const ExperimentConfig& config) {
  const auto nodes = static_cast<graph::NodeId>(
      std::max(64.0, config.scale * static_cast<double>(spec.default_nodes)));
  return gen::build_dataset(spec, nodes, config.seed);
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

}  // namespace socmix::core
