// Scenario: quantify the sampling bias the paper flags in footnote 3 —
// "BFS may bias the sampled graph to have faster mixing".
//
// We take one slow-mixing stand-in, draw same-size samples three ways
// (BFS, uniform-node, random-walk), and measure the SLEM of each sample's
// largest component. BFS and random-walk samples over-represent the dense
// core, so they report *faster* mixing than uniform induction — which is
// why the paper argues its slow-mixing conclusion is conservative.
//
//   ./sampling_bias [--dataset "Physics 3"] [--nodes 8000]
//                   [--sample 2500] [--trials 3] [--seed 42]
#include <cstdio>
#include <iostream>
#include <limits>

#include "core/experiment.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/sampling.hpp"
#include "linalg/lanczos.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace socmix;

namespace {

struct SampleStats {
  double mu_sum = 0.0;
  double nodes_sum = 0.0;
  int trials = 0;
};

void accumulate(SampleStats& stats, const graph::Graph& sample) {
  const auto lcc = graph::largest_component(sample).graph;
  if (lcc.num_nodes() < 10) return;
  const auto spectrum = linalg::slem_spectrum(linalg::WalkOperator{lcc});
  stats.mu_sum += spectrum.slem;
  stats.nodes_sum += lcc.num_nodes();
  ++stats.trials;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  core::configure_observability(cli);
  const std::string dataset = cli.get("dataset", "Physics 3");
  const auto nodes = static_cast<graph::NodeId>(cli.get_count_or_exit(
      "nodes", 8000, std::numeric_limits<graph::NodeId>::max()));
  const auto sample_size = static_cast<graph::NodeId>(cli.get_count_or_exit(
      "sample", 2500, std::numeric_limits<graph::NodeId>::max()));
  const auto trials = static_cast<int>(
      cli.get_count_or_exit("trials", 3, std::numeric_limits<int>::max()));
  const auto seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));

  const auto spec = gen::find_dataset(dataset);
  if (!spec) {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
    return 1;
  }
  const auto g = gen::build_dataset(*spec, nodes, seed);
  const auto full = linalg::slem_spectrum(linalg::WalkOperator{g});
  std::printf("%s stand-in: n=%u m=%llu, full-graph mu=%.5f\n\n", spec->name.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              full.slem);

  SampleStats bfs;
  SampleStats uniform;
  SampleStats walk;
  util::Rng rng{seed};
  for (int t = 0; t < trials; ++t) {
    accumulate(bfs, graph::bfs_sample(g, sample_size, rng).graph);
    accumulate(uniform, graph::uniform_node_sample(g, sample_size, rng).graph);
    accumulate(walk, graph::random_walk_sample(g, sample_size, rng).graph);
  }

  util::TextTable table;
  table.header({"Sampling method", "mean mu of sample", "mean LCC nodes", "trials"});
  const auto row = [&](const char* name, const SampleStats& s) {
    if (s.trials == 0) {
      table.row({name, "n/a", "n/a", "0"});
      return;
    }
    table.row({name, util::fmt_fixed(s.mu_sum / s.trials, 5),
               util::fmt_fixed(s.nodes_sum / s.trials, 0), std::to_string(s.trials)});
  };
  row("BFS (paper's method)", bfs);
  row("uniform-node induced", uniform);
  row("random-walk", walk);
  table.print(std::cout);

  std::printf("\nfull graph mu = %.5f. Samples with mu below this confirm the\n"
              "paper's footnote-3 claim: core-biased sampling (BFS/random-walk)\n"
              "makes graphs look faster-mixing than they are, so the paper's\n"
              "slow-mixing findings are, if anything, understated.\n",
              full.slem);
  return 0;
}
