// Figure 5: SLEM lower bound vs. the sampled measurement, per physics
// dataset: at each walk length t, the lower-bound curve eps_lb(t) is drawn
// against percentile aggregates of the per-source variation distance
// (top 10% of sources, the mean, the worst 99.9%/max).
//
// The paper's takeaway: most sources beat the SLEM bound handily (average
// case is much better than worst case), yet even the typical source is far
// slower than the w = 10-15 Sybil defenses assumed.
//
//   --scale F     node-count multiplier (default 1.0)
//   --sources N   source sample (default 100; 0 = every vertex)
//   --steps N     max walk length (default 500)
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
  const std::size_t max_steps = config.max_steps != 0 ? config.max_steps : 500;

  std::cout << "Figure 5: lower bound vs sampled mixing for the physics datasets\n";

  int panel = 0;
  for (const char* name : kDatasets) {
    const auto spec = *gen::find_dataset(name);
    const auto g = core::build_scaled_dataset(spec, config);

    core::MeasurementOptions options = config.measurement_options();
    options.sources = sources;
    options.all_sources = sources == 0;
    options.max_steps = max_steps;
    const auto report = core::measure_mixing(g, spec.name, options);
    std::cout << core::summarize(report) << "\n";
    std::fflush(stdout);

    const auto bounds = report.bounds();
    const auto curves = report.sampled->percentile_curves(0.10, 0.20, 0.10);

    // Sample the t-axis logarithmically like the paper's plots.
    std::vector<std::size_t> ts;
    for (std::size_t t = 1; t <= max_steps; t = t < 10 ? t + 1 : t * 5 / 4) {
      ts.push_back(t);
    }
    if (ts.back() != max_steps) ts.push_back(max_steps);

    core::Series lower{"Lower-bound", {}, {}};
    core::Series top{"Top 10%", {}, {}};
    core::Series mean{"Average", {}, {}};
    core::Series worst{"Top 99.9%", {}, {}};
    for (const std::size_t t : ts) {
      const auto x = static_cast<double>(t);
      lower.x.push_back(x);
      lower.y.push_back(bounds.epsilon_at(x));
      top.x.push_back(x);
      top.y.push_back(curves.top[t - 1]);
      mean.x.push_back(x);
      mean.y.push_back(curves.mean[t - 1]);
      worst.x.push_back(x);
      worst.y.push_back(curves.max[t - 1]);
    }
    core::emit_series(spec.name + ": variation distance vs walk length", "t",
                      {lower, top, mean, worst},
                      "fig5_bound_vs_sampled_" + std::string{"abc"}.substr(panel, 1));
    ++panel;
  }
  return 0;
}
