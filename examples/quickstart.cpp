// Quickstart: measure the mixing time of a social graph in ~30 lines.
//
//   ./quickstart                      # built-in demo graph (Physics 1 stand-in)
//   ./quickstart --edges graph.txt   # your own SNAP-style "u v" edge list
//
// Walkthrough of the library's main path:
//   1. obtain a graph (load a file or generate a stand-in),
//   2. extract the largest connected component (mixing time is undefined
//      on disconnected graphs),
//   3. measure: SLEM via Lanczos + sampled walk-distribution evolution,
//   4. read off the numbers the paper reports.
#include <cstdio>
#include <iostream>
#include <utility>

#include "core/experiment.hpp"
#include "core/measurement.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/io.hpp"
#include "util/cli.hpp"

using namespace socmix;

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  core::configure_observability(cli);

  // 1. Get a graph.
  graph::Graph raw;
  std::string name;
  if (cli.has("edges")) {
    auto loaded = graph::load_edge_list_file(cli.get("edges", ""));
    std::printf("loaded %zu edges (%zu self-loops dropped, %zu duplicates)\n",
                loaded.edges_parsed, loaded.self_loops_dropped,
                loaded.duplicates_dropped);
    raw = std::move(loaded.graph);
    name = cli.get("edges", "");
  } else {
    const auto spec = *gen::find_dataset("Physics 1");
    raw = gen::build_dataset(spec, 4160, /*seed=*/42);
    name = spec.name + " (synthetic stand-in)";
  }

  // 2. Largest connected component.
  const auto lcc = graph::largest_component(raw);
  const auto& g = lcc.graph;
  std::printf("%s: n=%u m=%llu (largest component of %u)\n\n", name.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              raw.num_nodes());

  // 3. Measure.
  core::MeasurementOptions options;
  options.sources = 200;   // sampled initial distributions
  options.max_steps = 400; // walk-length budget per source
  const auto report = core::measure_mixing(g, name, options);

  // 4. The paper's numbers.
  std::printf("SLEM (second largest eigenvalue modulus): mu = %.6f\n", report.slem);
  std::printf("  lambda_2 = %.6f, lambda_min = %.6f (%zu Lanczos iterations)\n\n",
              report.lambda2, report.lambda_min, report.lanczos_iterations);

  std::puts("Theorem-2 bounds on the mixing time T(eps):");
  for (const double eps : {0.25, 0.1, 0.01, 0.001}) {
    std::printf("  eps=%-6g   %8.1f <= T(eps) <= %8.1f walk steps\n", eps,
                report.lower_bound(eps), report.upper_bound(eps));
  }

  std::puts("\nSampled measurement (variation distance after t steps):");
  const auto curves = report.sampled->percentile_curves();
  for (const std::size_t t : {10u, 50u, 100u, 200u, 400u}) {
    std::printf("  t=%-4zu  best-10%%=%.4f  mean=%.4f  worst=%.4f\n", t,
                curves.top[t - 1], curves.mean[t - 1], curves.max[t - 1]);
  }

  const auto t01 = report.sampled->worst_mixing_time(0.1);
  if (t01 != markov::kNotMixed) {
    std::printf("\nWorst sampled source reaches eps=0.1 after %zu steps", t01);
  } else {
    std::printf("\nWorst sampled source did NOT reach eps=0.1 within %zu steps",
                options.max_steps);
  }
  std::puts(" -- compare with the w=10..15 that SybilLimit-era designs assumed.");
  return 0;
}
