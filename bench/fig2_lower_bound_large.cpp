// Figure 2: lower bound of the mixing time for the large datasets
// (Facebook A/B, DBLP, Youtube, LiveJournal A/B).
//
// Same methodology as Figure 1 on the scaled large stand-ins. The paper's
// shape to reproduce: LiveJournal far above everything else (1500-2500
// steps at eps = 0.1), DBLP/Youtube/Facebook in the 100-400 band.
//
//   --scale F   node-count multiplier (default 0.5 of the 100K defaults)
//   --seed N
#include <cstdio>
#include <iostream>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "core/measurement.hpp"

using namespace socmix;

namespace {
constexpr const char* kDatasets[] = {"Facebook A",    "Facebook B", "DBLP",
                                     "Youtube",       "Livejournal A",
                                     "Livejournal B"};
}

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
  auto config = core::ExperimentConfig::from_cli_or_exit(cli);
  if (!cli.has("scale")) config.scale = 0.5;

  std::cout << "Figure 2: lower bound of the mixing time -- large datasets\n";
  const auto epsilons = core::figure_epsilon_grid();

  std::vector<core::Series> series;
  for (const char* name : kDatasets) {
    const auto spec = *gen::find_dataset(name);
    const auto g = core::build_scaled_dataset(spec, config);

    core::MeasurementOptions options = config.measurement_options();
    options.sampled = false;
    const auto report = core::measure_mixing(g, spec.name, options);
    std::cout << core::summarize(report) << "\n";
    std::fflush(stdout);

    core::Series s;
    s.name = core::mark_unconverged(spec.name, report);
    for (const double eps : epsilons) {
      s.x.push_back(eps);
      s.y.push_back(report.lower_bound(eps));
    }
    series.push_back(std::move(s));
  }

  core::emit_series("T(eps) lower bound vs eps (walk steps)", "eps", series,
                    "fig2_lower_bound_large");
  return core::exit_status(cli);
}
