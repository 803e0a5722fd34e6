// Scenario: you operate a SybilLimit-style admission control system and
// must pick the random-route length w for YOUR social graph.
//
// The paper's §5 message is that w = O(log n) folklore undershoots badly
// on real graphs. This example walks the operator's decision procedure:
//   1. measure the graph's mixing profile (SLEM + sampled percentiles),
//   2. sweep w and measure the honest admission rate,
//   3. measure what each candidate w costs in accepted Sybil identities
//      (~ g * w), and print the final trade-off table.
//
//   ./sybil_tuning [--dataset "Physics 1"] [--nodes 2600] [--seed 42]
#include <cstdio>
#include <iostream>
#include <limits>

#include "core/experiment.hpp"
#include "core/measurement.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "sybil/attack.hpp"
#include "sybil/sybil_limit.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace socmix;

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  core::configure_observability(cli);
  const std::string dataset = cli.get("dataset", "Physics 1");
  const auto nodes = static_cast<graph::NodeId>(cli.get_count_or_exit(
      "nodes", 2600, std::numeric_limits<graph::NodeId>::max()));
  const auto seed = static_cast<std::uint64_t>(
      cli.or_exit([&] { return cli.get_i64("seed", 42); }));

  const auto spec = gen::find_dataset(dataset);
  if (!spec) {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
    return 1;
  }
  const auto g = gen::build_dataset(*spec, nodes, seed);
  std::printf("graph: %s stand-in, n=%u m=%llu\n\n", spec->name.c_str(), g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  // -- 1. mixing profile ---------------------------------------------------
  core::MeasurementOptions options;
  options.sources = 150;
  options.max_steps = 200;
  options.seed = seed;
  const auto report = core::measure_mixing(g, spec->name, options);
  std::printf("mixing profile: mu=%.5f -> T(0.1) >= %.0f steps (Theorem 2)\n",
              report.slem, report.lower_bound(0.1));
  const auto avg = report.sampled->average_mixing_time(0.1);
  std::printf("sampled: average source reaches eps=0.1 in %.0f steps "
              "(%zu of %zu sources never did within %zu)\n\n",
              avg.mean_steps, avg.unmixed_sources, report.sampled->num_sources(),
              options.max_steps);

  // -- 2. honest admission sweep -------------------------------------------
  sybil::AdmissionSweepConfig sweep;
  sweep.route_lengths = {2, 4, 6, 8, 10, 15, 20, 30, 40};
  sweep.suspect_sample = 150;
  sweep.verifier_sample = 3;
  sweep.seed = seed;
  const auto admission = sybil::admission_sweep(g, sweep);

  // -- 3. sybil cost per candidate w ---------------------------------------
  sybil::AttackConfig atk;
  atk.sybil_nodes = g.num_nodes() / 4;
  atk.attack_edges = 10;
  atk.seed = seed;
  const auto composite = sybil::attach_sybil_region(g, atk);

  util::TextTable table;
  table.header({"w", "honest admitted", "sybils admitted (g=10)", "verdict"});
  double best_utility = 0.0;
  std::size_t best_w = 0;
  for (const auto& point : admission) {
    sybil::SybilLimitParams params;
    params.route_length = point.route_length;
    params.seed = seed;
    const sybil::SybilLimit protocol{composite.graph, params};
    auto verifier = protocol.make_verifier(0);
    std::uint64_t sybils = 0;
    const graph::NodeId step = std::max<graph::NodeId>(1, composite.num_sybil() / 150);
    std::uint64_t tried = 0;
    for (graph::NodeId s = composite.sybil_base; s < composite.graph.num_nodes();
         s += step) {
      ++tried;
      if (verifier.admit(protocol, s)) ++sybils;
    }
    const double sybils_scaled = static_cast<double>(sybils) *
                                 composite.num_sybil() / static_cast<double>(tried);

    const bool good_utility = point.admitted_fraction >= 0.95;
    table.row({std::to_string(point.route_length),
               util::fmt_fixed(100.0 * point.admitted_fraction, 1) + "%",
               util::fmt_fixed(sybils_scaled, 0),
               good_utility ? "meets 95% honest-admission target" : ""});
    if (good_utility && best_w == 0) {
      best_w = point.route_length;
      best_utility = point.admitted_fraction;
    }
  }
  table.print(std::cout);

  if (best_w != 0) {
    std::printf("\nrecommendation: w = %zu (%.1f%% honest admission); every extra "
                "hop admits ~g more Sybils per attack edge.\n",
                best_w, 100.0 * best_utility);
  } else {
    std::puts("\nno w in the sweep met the 95% honest-admission target -- this "
              "graph mixes too slowly; consider longer routes (more Sybil risk) "
              "or accept lower utility.");
  }
  return 0;
}
