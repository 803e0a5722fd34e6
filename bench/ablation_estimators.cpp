// Ablation: mixing estimators side by side (the paper's §2 methodology
// critique, made quantitative).
//
// On one slow stand-in, per walk length t, compare:
//   * exact TVD (the paper's Definition-1 measure; ground truth here),
//   * separation distance (Whanau's analysis metric; >= TVD),
//   * Monte-Carlo TVD at two walk budgets (biased up by sampling noise),
//   * Whanau-style tail-edge statistics (TVD to uniform over edges and
//     max over-representation) — the "circumstantial" evidence.
//
//   --dataset NAME  (default "Physics 1")
//   --nodes N       (default 2600)
//   --seed N
#include <cstdio>
#include <iostream>
#include <limits>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "gen/datasets.hpp"
#include "markov/estimators.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/stationary.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace socmix;

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
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
  const auto pi = markov::stationary_distribution(g);
  const graph::NodeId source = 0;

  std::printf("Estimator comparison on %s stand-in (n=%u m=%llu), source=%u\n\n",
              spec->name.c_str(), g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()), source);

  const std::vector<std::size_t> lengths{5, 10, 20, 40, 80, 160, 320};
  const std::size_t max_steps = lengths.back();

  const auto tvd = markov::tvd_trajectory(g, source, max_steps, pi);
  const auto sep = markov::separation_trajectory(g, source, max_steps);

  util::TextTable table;
  table.header({"t", "exact TVD", "separation", "MC-TVD (1k walks)",
                "MC-TVD (100k walks)", "tail TVD", "tail max-over"});
  util::Rng rng{seed};
  for (const std::size_t t : lengths) {
    const double mc_small = markov::monte_carlo_tvd(g, source, t, 1'000, pi, rng);
    const double mc_large = markov::monte_carlo_tvd(g, source, t, 100'000, pi, rng);
    const auto tails = markov::estimate_tail_uniformity(g, source, t, 20'000, rng);
    table.row({std::to_string(t), util::fmt_fixed(tvd[t - 1], 4),
               util::fmt_fixed(sep[t - 1], 4), util::fmt_fixed(mc_small, 4),
               util::fmt_fixed(mc_large, 4), util::fmt_fixed(tails.tvd_to_uniform, 4),
               util::fmt_fixed(tails.max_overrepresentation, 1)});
    std::fflush(stdout);
  }
  table.print(std::cout);

  std::cout << "\nReading: separation >= TVD everywhere (footnote 2, Whanau's\n"
               "stricter metric); the 1k-walk Monte-Carlo estimate saturates at\n"
               "its ~sqrt(n/W) noise floor; and the sampled tail-edge statistics\n"
               "inherit the same floor — no finite-sample tail histogram can\n"
               "certify the eps = Theta(1/n) the defenses' proofs require, the\n"
               "paper's SS2 point about circumstantial evidence.\n";
  return core::exit_status(cli);
}
