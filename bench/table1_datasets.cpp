// Table 1: datasets, their sizes, and the second largest eigenvalue
// modulus of the transition matrix.
//
// Reproduces the paper's inventory over the synthetic stand-ins: for each
// of the 15 datasets, build at bench scale, extract the largest connected
// component, and compute mu by deflated Lanczos. A mu whose solve did not
// converge reads "UNCONVERGED" after it, in the table and in the CSV.
//
//   --scale F    multiply every dataset's default node count (default 0.5)
//   --seed N     generator seed (default 42)
//   --sampled    also run the 1000-source sampled measurement (slow)
#include <cstdio>
#include <iostream>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "core/measurement.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace socmix;

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
  auto config = core::ExperimentConfig::from_cli_or_exit(cli);
  if (!cli.has("scale")) config.scale = 0.5;

  std::cout << "Table 1: datasets, their properties and their second largest\n"
               "eigenvalues of the transition matrix (synthetic stand-ins)\n";
  std::printf("scale=%.2f seed=%llu\n\n", config.scale,
              static_cast<unsigned long long>(config.seed));

  util::TextTable table;
  table.header({"Dataset", "Class", "Nodes", "Edges", "mu", "lambda2", "lambda_min",
                "paper n", "paper m", "time"});

  std::vector<std::vector<std::string>> csv_rows;
  for (const auto& spec : gen::table1_datasets()) {
    const auto g = core::build_scaled_dataset(spec, config);

    core::MeasurementOptions options = config.measurement_options();
    options.sampled = cli.get_flag("sampled");
    options.sources = 1000;
    options.max_steps = 200;
    const auto report = core::measure_mixing(g, spec.name, options);

    const char* cls = spec.paper_mixing_class == gen::MixingClass::kFast   ? "fast"
                      : spec.paper_mixing_class == gen::MixingClass::kSlow ? "slow"
                                                                           : "moderate";
    table.row({spec.name, cls, util::with_commas(static_cast<std::int64_t>(report.nodes)),
               util::with_commas(static_cast<std::int64_t>(report.edges)),
               core::mark_unconverged(util::fmt_fixed(report.slem, 4), report),
               util::fmt_fixed(report.lambda2, 4),
               util::fmt_fixed(report.lambda_min, 4),
               util::with_commas(static_cast<std::int64_t>(spec.paper_nodes)),
               util::with_commas(static_cast<std::int64_t>(spec.paper_edges)),
               // Phase seconds come from the measurement itself (mirrored in
               // the obs gauges) — no driver-side stopwatch to drift from it.
               util::format_seconds(report.spectral_seconds + report.sampled_seconds)});
    csv_rows.push_back({spec.name, cls, std::to_string(report.nodes),
                        std::to_string(report.edges),
                        core::mark_unconverged(util::fmt_fixed(report.slem, 6), report)});
    std::fflush(stdout);
  }
  table.print(std::cout);

  if (const auto dir = util::bench_results_dir()) {
    util::CsvWriter csv{*dir + "/table1_datasets.csv"};
    csv.row({"dataset", "class", "nodes", "edges", "mu"});
    for (const auto& row : csv_rows) csv.row(row);
  }
  return core::exit_status(cli);
}
