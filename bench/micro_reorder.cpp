// Kernel throughput under the pack-time vertex ordering (graph_pack
// --reorder none|rcm).
//
// For a fast-class and a slow-class Table-1 stand-in, and for two base
// labelings — "native" (generator order; community generators label
// blocks contiguously, so this is already quite local) and "crawl" (a
// deterministic shuffle simulating the arbitrary vertex ids of a real
// edge-list crawl) — this times the two hot kernels on the graph as
// labeled (mode none) and relabeled in reverse Cuthill-McKee order (mode
// rcm), and reports the speedup over mode none:
//
//   * evolve:  BatchedEvolver::step_with_tvd, 32 lanes (the sampled
//              measurement's inner loop),
//   * spmv:    WalkOperator::apply (the Lanczos kernel).
//
// Method: per configuration the kernel loop runs `--steps` iterations per
// round; the minimum wall time over `--rounds` rounds is reported (min
// filters scheduler noise). The ordering only relabels the graph, so the
// numbers are pure memory-locality effects. Locality stats (bandwidth,
// mean neighbor-label distance) are recorded alongside the timings.
//
//   micro_reorder [--nodes N] [--steps N] [--rounds N] [--quick]
//                 [--out bench_results/micro_reorder.csv]
//                 [--bench-out PATH] [--bench-repeats N]
//
// --quick shrinks everything for CI smoke coverage. Every timed round
// also reports through the process bench::Harness, so the run emits
// bench_results/BENCH_micro-reorder.json (one entry per
// <kernel>/<dataset>/<labeling>/<mode>, one repeat per round) with
// provenance and hardware counters where available.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_harness/harness.hpp"
#include "gen/datasets.hpp"
#include "graph/reorder.hpp"
#include "linalg/walk_operator.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/stationary.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace socmix;

namespace {

constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kCrawlSeed = 0xc4a31;

struct Row {
  std::string dataset;
  std::string labeling;  // "native" | "crawl"
  std::string mode;
  std::string kernel;  // "evolve" | "spmv"
  graph::NodeId nodes = 0;
  std::uint64_t edges = 0;
  graph::LocalityStats locality;
  double min_seconds = 0.0;
  double speedup_vs_none = 0.0;
};

// Both kernels report each round into the process harness under `entry`
// (the BENCH artifact keeps all repeats); the returned min stays the
// number the table, CSV, and speedup columns are built from.

double time_evolve(const graph::Graph& g, std::size_t steps, std::size_t rounds,
                   const std::string& entry) {
  const std::vector<double> pi = markov::stationary_distribution(g);
  std::vector<graph::NodeId> sources(32);
  for (graph::NodeId s = 0; s < 32; ++s) sources[s] = s;
  markov::BatchedEvolver evolver{g, 0.0, 32};
  std::vector<double> tvd(32);
  double best = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    evolver.seed_point_masses(sources);
    const double elapsed = bench::Harness::process().time_once(entry, [&] {
      for (std::size_t t = 0; t < steps; ++t) evolver.step_with_tvd(pi, tvd);
    });
    if (tvd[0] < 0.0) std::abort();  // keep the loop observable
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

double time_spmv(const graph::Graph& g, std::size_t steps, std::size_t rounds,
                 const std::string& entry) {
  const linalg::WalkOperator op{g, 0.0};
  const std::size_t n = op.dim();
  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  std::vector<double> y(n, 0.0);
  double best = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const double elapsed = bench::Harness::process().time_once(entry, [&] {
      for (std::size_t t = 0; t < steps; ++t) {
        op.apply(x, y);
        x.swap(y);
      }
    });
    if (x[0] < 0.0) std::abort();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  bench::Harness::configure_process(cli);
  const bool quick = cli.get_flag("quick");
  const auto nodes_override = static_cast<graph::NodeId>(cli.get_i64("nodes", 0));
  const auto steps = static_cast<std::size_t>(cli.get_i64("steps", quick ? 4 : 40));
  // 5 rounds by default (was 3/2): the BENCH artifact needs >= 5 repeats
  // per entry for the regression gate's median to be robust.
  const auto rounds = static_cast<std::size_t>(
      cli.get_i64("rounds", static_cast<std::int64_t>(bench::Harness::process_repeats(5))));
  bench::Harness::process().set_flag("quick", quick ? "true" : "false");
  bench::Harness::process().set_flag("steps", std::to_string(steps));
  bench::Harness::process().set_flag("rounds", std::to_string(rounds));

  // One expander-like fast mixer, one community-heavy slow mixer — the
  // structural classes the paper contrasts (locality gains concentrate in
  // the latter, whose CSR has exploitable block structure).
  const std::vector<std::string> dataset_names{"Facebook", "Livejournal A"};

  std::vector<Row> rows;
  for (const std::string& name : dataset_names) {
    const auto spec = gen::find_dataset(name);
    if (!spec) {
      std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
      return 1;
    }
    const graph::NodeId nodes =
        nodes_override != 0 ? nodes_override
                            : (quick ? std::min<graph::NodeId>(10'000, spec->default_nodes)
                                     : spec->default_nodes);
    const graph::Graph native = gen::build_dataset(*spec, nodes, kSeed);
    std::fprintf(stderr, "%s: n=%u m=%llu\n", name.c_str(), native.num_nodes(),
                 static_cast<unsigned long long>(native.num_edges()));

    for (const std::string labeling : {"native", "crawl"}) {
      const graph::Graph base =
          labeling == std::string{"native"}
              ? native
              : graph::apply_permutation(
                    native, graph::shuffle_permutation(native.num_nodes(), kCrawlSeed));
      double none_evolve = 0.0;
      double none_spmv = 0.0;
      for (const std::string mode_slug : {"none", "rcm"}) {
        const bool none = mode_slug == "none";
        const graph::Graph g =
            none ? base : graph::apply_permutation(base, graph::rcm_permutation(base));
        const graph::LocalityStats stats = graph::locality_stats(g);
        const std::string prefix =
            util::slugify(name) + "/" + labeling + "/" + mode_slug;
        const double evolve_s = time_evolve(g, steps, rounds, "evolve/" + prefix);
        const double spmv_s = time_spmv(g, steps, rounds, "spmv/" + prefix);
        if (none) {
          none_evolve = evolve_s;
          none_spmv = spmv_s;
        }
        rows.push_back({name, labeling, mode_slug, "evolve", g.num_nodes(),
                        g.num_edges(), stats, evolve_s, none_evolve / evolve_s});
        rows.push_back({name, labeling, mode_slug, "spmv", g.num_nodes(),
                        g.num_edges(), stats, spmv_s, none_spmv / spmv_s});
      }
    }
  }

  util::TextTable table;
  table.header({"dataset", "labeling", "mode", "kernel", "bandwidth", "avg nbr dist",
                "min seconds", "speedup vs none"});
  for (const Row& row : rows) {
    table.row({row.dataset, row.labeling, row.mode, row.kernel,
               std::to_string(row.locality.bandwidth),
               util::fmt_fixed(row.locality.avg_neighbor_distance, 1),
               util::fmt_fixed(row.min_seconds, 4),
               util::fmt_fixed(row.speedup_vs_none, 2)});
  }
  table.print(std::cout);

  const std::string out =
      cli.get("out", util::bench_results_dir().value_or(".") + "/micro_reorder.csv");
  util::CsvWriter csv{out};
  csv.row({"dataset", "labeling", "mode", "kernel", "nodes", "edges", "bandwidth",
           "avg_neighbor_distance", "min_seconds", "speedup_vs_none"});
  for (const Row& row : rows) {
    csv.row({row.dataset, row.labeling, row.mode, row.kernel,
             std::to_string(row.nodes), std::to_string(row.edges),
             std::to_string(row.locality.bandwidth),
             util::fmt_fixed(row.locality.avg_neighbor_distance, 2),
             util::fmt_sci(row.min_seconds, 6),
             util::fmt_fixed(row.speedup_vs_none, 3)});
  }
  if (csv.ok()) std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}
