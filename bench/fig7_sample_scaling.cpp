// Figure 7: sampling vs lower-bound measurements of the mixing time at
// 10K/100K/1000K BFS samples of the four large datasets (Facebook A/B,
// LiveJournal A/B) — 12 panels in the paper.
//
// For each (dataset, sample size): BFS-sample the stand-in, measure the
// SLEM lower-bound curve and the sampled percentile curves (top 10%,
// median 20%, lowest 10% as the paper aggregates).
//
// Default sample sizes are scaled to 2K/8K/32K (the committed
// bench_results/fig7_*_{2K,8K,32K}.csv) so the bench finishes on one core;
// --sizes and --scale grow it toward the paper's 10K/100K/1000K.
//
//   --scale F     multiplier on the base graph size (default 0.5)
//   --sizes a,b,c comma-separated sample sizes (default 2000,8000,32000)
//   --sources N   sampled-measurement sources per panel (default 40)
//   --steps N     max walk length (default 120)
//   --seed N
//   --threads N   worker threads for source-block evolution and SpMV
//                 (default: SOCMIX_THREADS, then hardware); output is
//                 identical for every value
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "core/measurement.hpp"
#include "graph/components.hpp"
#include "graph/sampling.hpp"
#include "util/string_util.hpp"

using namespace socmix;

namespace {
constexpr const char* kDatasets[] = {"Facebook A", "Facebook B", "Livejournal A",
                                     "Livejournal B"};
}

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
  auto config = core::ExperimentConfig::from_cli_or_exit(cli);
  if (!cli.has("scale")) config.scale = 0.5;
  const std::size_t sources = cli.has("sources") ? config.sources : 40;
  const std::size_t max_steps = config.max_steps != 0 ? config.max_steps : 120;

  std::vector<graph::NodeId> sizes;
  // split() returns views: the flag string must outlive the loop.
  const std::string size_list = cli.get("sizes", "2000,8000,32000");
  for (const auto token : util::split(size_list, ',')) {
    if (const auto v = util::parse_i64(token)) {
      sizes.push_back(static_cast<graph::NodeId>(*v));
    }
  }

  std::cout << "Figure 7: sampling vs lower-bound at increasing BFS sample sizes\n";

  util::Rng rng{config.seed};
  for (const char* name : kDatasets) {
    const auto spec = *gen::find_dataset(name);
    const auto base = core::build_scaled_dataset(spec, config);
    std::printf("\n%s stand-in: n=%u m=%llu\n", name, base.num_nodes(),
                static_cast<unsigned long long>(base.num_edges()));
    std::fflush(stdout);

    for (const graph::NodeId size : sizes) {
      const auto sample = graph::bfs_sample(base, size, rng);
      const auto g = graph::largest_component(sample.graph).graph;

      core::MeasurementOptions options = config.measurement_options();
      options.sources = sources;
      options.max_steps = max_steps;
      const auto report = core::measure_mixing(g, spec.name, options);

      const auto bounds = report.bounds();
      const auto curves = report.sampled->percentile_curves(0.10, 0.20, 0.10);

      std::vector<std::size_t> ts;
      for (std::size_t t = 1; t <= max_steps; t = t < 8 ? t + 1 : t * 4 / 3) {
        ts.push_back(t);
      }
      if (ts.back() != max_steps) ts.push_back(max_steps);

      core::Series lower{core::mark_unconverged("Lower bound", report), {}, {}};
      core::Series top{"Top 10%", {}, {}};
      core::Series mid{"Median 20%", {}, {}};
      core::Series low{"Lowest 10%", {}, {}};
      for (const std::size_t t : ts) {
        const auto x = static_cast<double>(t);
        lower.x.push_back(x);
        lower.y.push_back(bounds.epsilon_at(x));
        top.x.push_back(x);
        top.y.push_back(curves.top[t - 1]);
        mid.x.push_back(x);
        mid.y.push_back(curves.median[t - 1]);
        low.x.push_back(x);
        low.y.push_back(curves.bottom[t - 1]);
      }
      char csv_name[96];
      std::snprintf(csv_name, sizeof csv_name, "fig7_%s_%uK",
                    util::to_lower(spec.name).c_str(), size / 1000);
      for (char& c : csv_name) {
        if (c == ' ') c = '_';
      }
      char title[128];
      std::snprintf(title, sizeof title, "%s %uK sample (mu=%.5f, n=%u)",
                    spec.name.c_str(), size / 1000, report.slem, g.num_nodes());
      core::emit_series(core::mark_unconverged(title, report), "t", {lower, top, mid, low},
                        csv_name);
      std::fflush(stdout);
    }
  }
  return core::exit_status(cli);
}
