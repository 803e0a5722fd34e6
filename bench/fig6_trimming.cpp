// Figure 6: the SybilGuard/SybilLimit trimming methodology on DBLP.
//
// Iteratively remove nodes of degree < k for k = 1..5 ("DBLP k" in the
// paper), then re-measure: (a) the SLEM lower-bound curves, (b) the average
// sampled mixing time. The paper's two-sided finding: trimming sharply
// improves mixing, AND sharply shrinks the graph (614,981 -> 145,497
// nodes), i.e. most of the network is denied service to buy the speedup.
//
//   --scale F     node-count multiplier on the DBLP stand-in (default 0.25)
//   --sources N   sampled-measurement sources (default 60)
//   --steps N     max walk length (default 800)
//   --seed N
#include <cstdio>
#include <iostream>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "core/measurement.hpp"
#include "graph/components.hpp"
#include "graph/trim.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace socmix;

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
  auto config = core::ExperimentConfig::from_cli_or_exit(cli);
  if (!cli.has("scale")) config.scale = 0.25;
  const std::size_t sources = cli.has("sources") ? config.sources : 60;
  const std::size_t max_steps = config.max_steps != 0 ? config.max_steps : 800;

  std::cout << "Figure 6: lower-bound vs average mixing time under min-degree "
               "trimming (DBLP)\n";

  const auto spec = *gen::find_dataset("DBLP");
  const auto base = core::build_scaled_dataset(spec, config);
  std::printf("DBLP stand-in: n=%u m=%llu\n\n", base.num_nodes(),
              static_cast<unsigned long long>(base.num_edges()));

  const auto epsilons = core::figure_epsilon_grid();
  std::vector<core::Series> bound_series;   // Fig 6(a)
  std::vector<core::Series> average_series; // Fig 6(b)
  util::TextTable summary;
  summary.header({"Trim level", "Nodes", "Edges", "mu", "kept %"});

  for (graph::NodeId k = 1; k <= 5; ++k) {
    const auto trimmed =
        graph::largest_component(graph::trim_min_degree(base, k).graph);
    const auto& g = trimmed.graph;
    if (g.num_nodes() < 10) {
      std::printf("DBLP %u: graph vanished under trimming; stopping\n", k);
      break;
    }

    core::MeasurementOptions options = config.measurement_options();
    options.sources = sources;
    options.max_steps = max_steps;
    const auto report = core::measure_mixing(g, "DBLP " + std::to_string(k), options);

    summary.row({"DBLP " + std::to_string(k),
                 util::with_commas(static_cast<std::int64_t>(report.nodes)),
                 util::with_commas(static_cast<std::int64_t>(report.edges)),
                 core::mark_unconverged(util::fmt_fixed(report.slem, 5), report),
                 util::fmt_fixed(100.0 * static_cast<double>(report.nodes) /
                                     static_cast<double>(base.num_nodes()),
                                 1)});

    core::Series bound;
    bound.name = core::mark_unconverged("DBLP " + std::to_string(k), report);
    for (const double eps : epsilons) {
      bound.x.push_back(eps);
      bound.y.push_back(report.lower_bound(eps));
    }
    bound_series.push_back(std::move(bound));

    core::Series avg;
    avg.name = "DBLP " + std::to_string(k);
    for (const double eps : epsilons) {
      avg.x.push_back(eps);
      avg.y.push_back(report.sampled->average_mixing_time(eps).mean_steps);
    }
    average_series.push_back(std::move(avg));
    std::fflush(stdout);
  }

  summary.print(std::cout);
  core::emit_series("Fig 6(a): T(eps) lower bound vs eps per trim level", "eps",
                    bound_series, "fig6a_trimming_lower_bound");
  core::emit_series("Fig 6(b): average sampled mixing time vs eps per trim level",
                    "eps", average_series, "fig6b_trimming_average");
  return core::exit_status(cli);
}
