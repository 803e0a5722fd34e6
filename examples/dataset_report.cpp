// Scenario: a measurement study intake pipeline — given a dataset (a SNAP
// edge list on disk, or any named Table-1 stand-in), produce the full
// structural + mixing report the paper would tabulate for it:
// size, degree stats, clustering, effective diameter, core structure,
// SLEM with Theorem-2 bounds, spectral-cut conductance with the Cheeger
// sandwich, and the sampled mixing percentiles.
//
//   ./dataset_report                         # default: Enron stand-in
//   ./dataset_report --dataset "Youtube" --nodes 20000
//   ./dataset_report --edges my_graph.txt
#include <cstdio>
#include <iostream>
#include <limits>

#include "core/experiment.hpp"
#include "core/measurement.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/trim.hpp"
#include "markov/conductance.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

using namespace socmix;

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  core::configure_observability(cli);
  const auto seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));

  graph::Graph raw;
  std::string name;
  if (cli.has("edges")) {
    name = cli.get("edges", "");
    raw = graph::load_edge_list_file(name).graph;
  } else {
    name = cli.get("dataset", "Enron");
    const auto spec = gen::find_dataset(name);
    if (!spec) {
      std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
      return 1;
    }
    const auto nodes = static_cast<graph::NodeId>(cli.get_count_or_exit(
        "nodes", 8000, std::numeric_limits<graph::NodeId>::max()));
    raw = gen::build_dataset(*spec, nodes, seed);
    name = spec->name + " stand-in";
  }

  const auto lcc = graph::largest_component(raw);
  const auto& g = lcc.graph;

  std::printf("== %s ==\n", name.c_str());
  std::printf("largest component: n=%s  m=%s  (of %s raw nodes)\n",
              util::with_commas(g.num_nodes()).c_str(),
              util::with_commas(static_cast<std::int64_t>(g.num_edges())).c_str(),
              util::with_commas(raw.num_nodes()).c_str());

  // --- structure ----------------------------------------------------------
  const auto deg = graph::degree_stats(g);
  std::printf("degrees: min=%u median=%.0f mean=%.2f max=%u\n", deg.min, deg.median,
              deg.mean, deg.max);

  util::Rng rng{seed};
  std::printf("avg clustering (1000-vertex sample): %.4f\n",
              graph::average_clustering(g, 1000, rng));
  std::printf("effective diameter (90%%, 8 BFS roots): %.0f\n",
              graph::effective_diameter(g, 8, 0.9, rng));
  std::printf("degeneracy (max k-core): %u\n", graph::degeneracy(g));
  std::printf("degree assortativity: %+.4f\n", graph::degree_assortativity(g));

  // --- mixing -------------------------------------------------------------
  core::MeasurementOptions options;
  options.sources = 150;
  options.max_steps = 300;
  options.seed = seed;
  const auto report = core::measure_mixing(g, name, options);
  std::printf("\nSLEM mu=%.6f (lambda2=%.6f, lambda_min=%.6f)\n", report.slem,
              report.lambda2, report.lambda_min);
  for (const double eps : {0.1, 0.01}) {
    std::printf("T(%.2f): lower bound %.0f, upper bound %.0f steps\n", eps,
                report.lower_bound(eps), report.upper_bound(eps));
  }
  const auto curves = report.sampled->percentile_curves();
  std::printf("sampled TVD at t=100: best-10%%=%.4f mean=%.4f worst=%.4f\n",
              curves.top[99], curves.mean[99], curves.max[99]);

  // --- community structure ------------------------------------------------
  const auto cut = markov::spectral_cut(g);
  std::printf("\nspectral sweep cut: conductance %.5f (side of %zu vertices)\n",
              cut.cut.conductance, cut.cut.set_size);
  std::printf("Cheeger sandwich: %.5f <= Phi <= %.5f (from lambda2=%.5f)\n",
              cut.cheeger_lower, cut.cheeger_upper, cut.lambda2);
  if (cut.cut.conductance < 0.05) {
    std::puts("-> pronounced community structure: expect slow mixing "
              "(paper SS3.2 / Viswanath et al.)");
  }
  return 0;
}
