// Figure 4: CDF of the variation distance at long walk lengths
// w in {80, 100, 200, 300, 400, 500} for the physics datasets.
//
// The paper's point: even at w = 500, a fraction of sources on the slow
// co-authorship graphs is still far from the stationary distribution.
//
//   --scale F     node-count multiplier (default 1.0)
//   --sources N   source sample size (default 100; 0 = every vertex)
//   --seed N
//   --threads N   worker threads for source-block evolution (default:
//                 SOCMIX_THREADS, then hardware); output is identical
//                 for every value
#include <cstdio>
#include <iostream>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "core/measurement.hpp"

using namespace socmix;

namespace {
constexpr const char* kDatasets[] = {"Physics 1", "Physics 2", "Physics 3"};
}

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
  const auto config = core::ExperimentConfig::from_cli_or_exit(cli);
  const std::size_t sources = cli.has("sources") ? config.sources : 100;

  std::cout << "Figure 4: CDF of mixing (long walks) for the physics datasets\n";
  const auto walk_lengths = core::long_walk_lengths();

  int panel = 0;
  for (const char* name : kDatasets) {
    const auto spec = *gen::find_dataset(name);
    const auto g = core::build_scaled_dataset(spec, config);

    core::MeasurementOptions options = config.measurement_options();
    options.spectral = false;
    options.sources = sources;
    options.all_sources = sources == 0;
    options.max_steps = walk_lengths.back();
    const auto report = core::measure_mixing(g, spec.name, options);

    std::printf("%s: n=%llu m=%llu sources=%zu\n", spec.name.c_str(),
                static_cast<unsigned long long>(report.nodes),
                static_cast<unsigned long long>(report.edges),
                report.sampled->num_sources());
    std::fflush(stdout);

    std::vector<core::Series> series;
    const std::size_t points = std::min<std::size_t>(50, report.sampled->num_sources());
    for (const std::size_t w : walk_lengths) {
      const auto sorted = report.sampled->sorted_tvd_at(w);
      core::Series s;
      s.name = "w=" + std::to_string(w);
      for (std::size_t i = 0; i < points; ++i) {
        const std::size_t idx = (i + 1) * sorted.size() / points - 1;
        s.x.push_back(static_cast<double>(idx + 1) / static_cast<double>(sorted.size()));
        s.y.push_back(sorted[idx]);
      }
      series.push_back(std::move(s));
    }
    core::emit_series(spec.name + ": variation distance by source percentile (CDF)",
                      "cdf", series,
                      "fig4_cdf_long_" + std::string{"abc"}.substr(panel, 1));
    ++panel;
  }
  return core::exit_status(cli);
}
