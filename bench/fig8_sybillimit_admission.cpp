// Figure 8: admission rate of SybilLimit as the random-route length t
// grows, on Physics 1-3 plus 10K samples of Facebook A and Slashdot 1 —
// and (§5) the Sybil cost of longer routes: accepted Sybil identities
// scale like g * t.
//
// The paper's shape: fast graphs saturate admission at small t; the slow
// physics graphs need much longer routes to admit almost all honest nodes.
//
//   --scale F     node-count multiplier (default 0.6)
//   --suspects N  honest suspects sampled per point (default 200, >= 1)
//   --r0 F        route-count multiplier r = r0 sqrt(m) (default 4, > 0)
//   --seed N
// The retired execution knobs (--sharded among them) are rejected by name.
// A malformed or out-of-range value exits 1 naming the flag, before any
// work.
#include <cstdio>
#include <iostream>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "graph/components.hpp"
#include "graph/sampling.hpp"
#include "sybil/admission_engine.hpp"
#include "sybil/attack.hpp"
#include "sybil/sybil_limit.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace socmix;

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
  // Refuses the retired execution knobs by name.
  auto config = core::ExperimentConfig::from_cli_or_exit(cli);
  if (!cli.has("scale")) config.scale = 0.6;
  const std::size_t suspects =
      cli.or_exit([&] { return cli.get_positive("suspects", 200); });
  const double r0 = cli.or_exit([&] { return cli.get_positive_f64("r0", 4.0); });

  const std::vector<std::size_t> lengths{1, 2, 4, 6, 8, 10, 15, 20, 30, 40};

  std::cout << "Figure 8: SybilLimit honest-admission rate vs route length\n";

  struct Panel {
    const char* dataset;
    graph::NodeId sample_nodes;  // 0 = use scaled default size
  };
  const Panel panels[] = {{"Physics 1", 0},
                          {"Physics 2", 0},
                          {"Physics 3", 0},
                          {"Facebook A", 10'000},
                          {"Slashdot 1", 10'000}};

  std::vector<core::Series> series;
  // Cold (verifier-index precompute) vs cached (batched verification) time
  // per panel — the split the admission engine exists to expose.
  std::vector<std::vector<std::string>> phase_rows;
  util::Rng rng{config.seed};
  for (const Panel& panel : panels) {
    const auto spec = *gen::find_dataset(panel.dataset);
    graph::Graph g = core::build_scaled_dataset(spec, config);
    std::string label = spec.name;
    if (panel.sample_nodes != 0) {
      g = graph::largest_component(
              graph::bfs_sample(g, panel.sample_nodes, rng).graph)
              .graph;
      label += " 10K";
    }
    std::printf("%s: n=%u m=%llu r=%.0f*sqrt(m)\n", label.c_str(), g.num_nodes(),
                static_cast<unsigned long long>(g.num_edges()), r0);
    std::fflush(stdout);

    sybil::AdmissionSweepConfig sweep;
    sweep.route_lengths = lengths;
    sweep.suspect_sample = suspects;
    sweep.verifier_sample = 3;
    sweep.r0 = r0;
    sweep.seed = config.seed;
    sweep.checkpoint = config.checkpoint;
    // Per-panel stem: panels share one --checkpoint-dir without clobbering.
    if (sweep.checkpoint.enabled()) {
      sweep.checkpoint.name = "fig8-" + util::slugify(label);
    }
    sybil::AdmissionEngineStats stats;
    sweep.engine_stats = &stats;
    const auto points = sybil::admission_sweep(g, sweep);

    const std::string slug = util::slugify(label);
    bench::Harness::process().record("admission/" + slug + "/precompute",
                                     stats.precompute_seconds);
    bench::Harness::process().record("admission/" + slug + "/verify",
                                     stats.query_seconds);
    phase_rows.push_back({label, std::to_string(g.num_nodes()),
                          std::to_string(g.num_edges()), std::to_string(sweep.instances(g)),
                          util::fmt_fixed(stats.precompute_seconds, 4),
                          util::fmt_fixed(stats.query_seconds, 4),
                          std::to_string(stats.route_hops_walked),
                          std::to_string(stats.route_hops_saved)});
    std::printf("  precompute %.3fs  verify %.3fs  hops walked %llu  saved %llu\n",
                stats.precompute_seconds, stats.query_seconds,
                static_cast<unsigned long long>(stats.route_hops_walked),
                static_cast<unsigned long long>(stats.route_hops_saved));

    core::Series s;
    s.name = label;
    for (const auto& point : points) {
      s.x.push_back(static_cast<double>(point.route_length));
      s.y.push_back(100.0 * point.admitted_fraction);
    }
    series.push_back(std::move(s));
  }
  core::emit_series("Accepted honest nodes (%) vs random walk length", "w", series,
                    "fig8_admission_rate");
  if (const auto dir = util::bench_results_dir()) {
    util::CsvWriter csv{*dir + "/fig8_admission_phases.csv"};
    csv.row({"panel", "n", "m", "r", "precompute_s", "verify_s", "hops_walked",
             "hops_saved"});
    for (const auto& row : phase_rows) csv.row(row);
  }

  // --- Section 5's Sybil-cost companion: accepted Sybils ~ g * w ---------
  std::cout << "\nSybil identities accepted vs attack edges g and route length w\n";
  const auto honest = core::build_scaled_dataset(*gen::find_dataset("Physics 1"), config);
  util::TextTable sybil_table;
  sybil_table.header({"g (attack edges)", "w", "sybils accepted", "of sybil nodes"});
  for (const graph::NodeId g_edges : {2u, 8u, 32u}) {
    for (const std::size_t w : {10u, 20u, 40u}) {
      sybil::AttackConfig atk;
      atk.sybil_nodes = honest.num_nodes() / 4;
      atk.attack_edges = g_edges;
      atk.seed = config.seed;
      const auto composite = sybil::attach_sybil_region(honest, atk);

      sybil::SybilLimitParams params;
      params.route_length = w;
      params.r0 = r0;
      params.seed = config.seed;
      const sybil::SybilLimit protocol{composite.graph, params};
      auto verifier = protocol.make_verifier(0);

      std::uint64_t accepted = 0;
      // Sample the sybil identities for speed.
      const graph::NodeId step = std::max<graph::NodeId>(1, composite.num_sybil() / 200);
      std::uint64_t tried = 0;
      for (graph::NodeId s = composite.sybil_base; s < composite.graph.num_nodes();
           s += step) {
        ++tried;
        if (verifier.admit(protocol, s)) ++accepted;
      }
      const double scaled =
          static_cast<double>(accepted) * composite.num_sybil() / static_cast<double>(tried);
      sybil_table.row({std::to_string(g_edges), std::to_string(w),
                       util::fmt_fixed(scaled, 0),
                       std::to_string(composite.num_sybil())});
      std::fflush(stdout);
    }
  }
  sybil_table.print(std::cout);
  return 0;
}
