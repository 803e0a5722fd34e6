// Figure 1: lower bound of the mixing time for the small datasets
// (Enron, Slashdot 1/2, Epinion, Physics 1-3, Wiki-vote).
//
// For each dataset we compute mu once, then evaluate the Theorem-2 lower
// bound T_lb(eps) = mu/(2(1-mu)) ln(1/2eps) across the paper's epsilon
// grid. Output: one series per dataset, x = eps, y = T_lb.
//
//   --scale F   node-count multiplier (default 1.0: paper size for these)
//   --seed N
#include <cstdio>
#include <iostream>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "core/measurement.hpp"

using namespace socmix;

namespace {
constexpr const char* kDatasets[] = {"Enron",     "Slashdot 1", "Slashdot 2",
                                     "Epinion",   "Physics 1",  "Physics 2",
                                     "Physics 3", "Wiki-vote"};
}

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
  const auto config = core::ExperimentConfig::from_cli_or_exit(cli);

  std::cout << "Figure 1: lower bound of the mixing time -- small datasets\n";
  const auto epsilons = core::figure_epsilon_grid();

  std::vector<core::Series> series;
  for (const char* name : kDatasets) {
    const auto spec = *gen::find_dataset(name);
    const auto g = core::build_scaled_dataset(spec, config);

    core::MeasurementOptions options = config.measurement_options();
    options.sampled = false;
    const auto report = core::measure_mixing(g, spec.name, options);
    std::cout << core::summarize(report) << "\n";

    core::Series s;
    s.name = spec.name;
    for (const double eps : epsilons) {
      s.x.push_back(eps);
      s.y.push_back(report.lower_bound(eps));
    }
    series.push_back(std::move(s));
  }

  core::emit_series("T(eps) lower bound vs eps (walk steps)", "eps", series,
                    "fig1_lower_bound_small");
  return 0;
}
