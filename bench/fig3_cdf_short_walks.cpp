// Figure 3: CDF of the variation distance at short walk lengths
// w in {1, 5, 10, 20, 40} for the three physics co-authorship datasets.
//
// The paper computes the distance from *every* node brute-forcefully; the
// default run samples sources to stay single-core-friendly and --sources 0
// restores the full brute force.
//
//   --scale F     node-count multiplier (default 1.0)
//   --sources N   source sample size (default 400; 0 = every vertex)
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

/// Emits, for one dataset, a CDF series per walk length: x = variation
/// distance (sorted sample values), y = cumulative fraction of sources.
void emit_cdf(const std::string& dataset, const markov::SampledMixing& sampled,
              const std::vector<std::size_t>& walk_lengths, const std::string& csv_name) {
  std::vector<core::Series> series;
  // Downsample the CDF to ~50 points per curve for readable output.
  const std::size_t points = std::min<std::size_t>(50, sampled.num_sources());
  for (const std::size_t w : walk_lengths) {
    const auto sorted = sampled.sorted_tvd_at(w);
    core::Series s;
    s.name = "w=" + std::to_string(w);
    for (std::size_t i = 0; i < points; ++i) {
      const std::size_t idx = (i + 1) * sorted.size() / points - 1;
      s.x.push_back(static_cast<double>(idx + 1) / static_cast<double>(sorted.size()));
      s.y.push_back(sorted[idx]);
    }
    series.push_back(std::move(s));
  }
  core::emit_series(dataset + ": variation distance by source percentile (CDF)",
                    "cdf", series, csv_name);
}
}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
  const auto config = core::ExperimentConfig::from_cli_or_exit(cli);
  const std::size_t sources = cli.has("sources") ? config.sources : 400;

  std::cout << "Figure 3: CDF of mixing (short walks) for the physics datasets\n";
  const auto walk_lengths = core::short_walk_lengths();

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
    emit_cdf(spec.name, *report.sampled, walk_lengths,
             "fig3_cdf_short_" + std::string{"abc"}.substr(panel, 1));
    ++panel;
  }
  return 0;
}
