// Checkpointing overhead on the sampled-mixing sweep: interval sweep of
// measure_sampled_mixing with --checkpoint-dir on vs off, uninterrupted
// runs (the steady-state cost; restore cost is a one-off on crash).
//
// Method mirrors bench_results/micro_obs_overhead.csv: interleaved
// off/on rounds on one build, minimum wall time over all rounds per
// config; min filters scheduler noise. Each timed run uses a fresh
// checkpoint directory so every snapshot write pays the full temp-write +
// hard-link + rename protocol, never an existing-file short-circuit.
//
//   micro_checkpoint [--nodes N] [--sources N] [--steps N] [--rounds N]
//                    [--out bench_results/micro_checkpoint_overhead.csv]
//                    [--bench-out PATH] [--bench-repeats N]
//
// Every timed run also reports through the process bench::Harness (entry
// sweep/interval<k>, one repeat per round), so the run emits
// bench_results/BENCH_micro-checkpoint.json with provenance and hardware
// counters where available.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_harness/harness.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "markov/mixing_time.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace socmix;

namespace {

struct IntervalResult {
  std::size_t interval = 0;  ///< 0 = checkpointing disabled
  double min_seconds = 0.0;
  std::size_t snapshots = 0;  ///< snapshot writes per run (for context)
};

double run_once(const graph::Graph& g, std::span<const graph::NodeId> sources,
                std::size_t max_steps, std::size_t interval,
                const std::filesystem::path& dir) {
  markov::SampledMixingOptions options;
  options.max_steps = max_steps;
  if (interval > 0) {
    std::filesystem::remove_all(dir);
    options.checkpoint.dir = dir.string();
    options.checkpoint.interval = interval;
  }
  std::optional<markov::SampledMixing> result;
  const double elapsed = bench::Harness::process().time_once(
      "sweep/interval" + std::to_string(interval),
      [&] { result = markov::measure_sampled_mixing(g, sources, options); });
  // Touch the result so the measurement cannot be elided.
  if (result->num_sources() != sources.size()) std::abort();
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  bench::Harness::configure_process(cli);
  const auto nodes = static_cast<graph::NodeId>(cli.get_count_or_exit(
      "nodes", 20000, std::numeric_limits<graph::NodeId>::max()));
  const std::size_t num_sources = cli.get_count_or_exit("sources", 512);
  const std::size_t max_steps = cli.get_count_or_exit("steps", 100);
  const std::size_t rounds = cli.get_count_or_exit("rounds", 7);
  const std::string out_path =
      cli.get("out", "bench_results/micro_checkpoint_overhead.csv");
  bench::Harness::process().set_flag("nodes", std::to_string(nodes));
  bench::Harness::process().set_flag("steps", std::to_string(max_steps));
  bench::Harness::process().set_flag("rounds", std::to_string(rounds));

  const auto spec = gen::find_dataset("Physics 1");
  if (!spec) {
    std::fprintf(stderr, "dataset spec missing\n");
    return 1;
  }
  const auto g =
      graph::largest_component(gen::build_dataset(*spec, nodes, 42)).graph;
  util::Rng rng{42};
  const auto sources = markov::pick_sources(g, num_sources, rng);
  const std::size_t blocks = (sources.size() + 31) / 32;
  std::fprintf(stderr, "graph: n=%u, sources=%zu (%zu blocks), steps=%zu\n",
               g.num_nodes(), sources.size(), blocks, max_steps);

  const auto tmp = std::filesystem::temp_directory_path() / "socmix_ckpt_bench";
  // interval 0 = off; 8 is CheckpointOptions' default cadence.
  std::vector<IntervalResult> results;
  for (const std::size_t interval : {0, 16, 8, 4, 2, 1}) {
    IntervalResult r;
    r.interval = interval;
    r.snapshots = interval == 0 ? 0 : blocks / interval + 1;  // + finalize
    r.min_seconds = 1e300;
    results.push_back(r);
  }

  for (std::size_t round = 0; round < rounds; ++round) {
    for (auto& r : results) {
      const double s = run_once(g, sources, max_steps, r.interval, tmp);
      if (s < r.min_seconds) r.min_seconds = s;
      std::fprintf(stderr, "round %zu interval %zu: %.3f s\n", round, r.interval, s);
    }
  }
  std::filesystem::remove_all(tmp);

  const double base = results.front().min_seconds;
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "# Checkpointing overhead of measure_sampled_mixing, interval sweep\n"
               "# (interval 0 = disabled baseline; 8 = default cadence).\n"
               "# Method: %zu interleaved rounds per config, minimum wall time per\n"
               "# config (min filters scheduler noise, as in micro_obs_overhead.csv);\n"
               "# fresh checkpoint dir per run, so every write pays the full\n"
               "# temp-write + hard-link + atomic-rename protocol.\n"
               "# Graph: '%s' stand-in, n=%u; %zu sources (%zu blocks), %zu steps.\n",
               rounds, spec->name.c_str(), g.num_nodes(), sources.size(), blocks,
               max_steps);
  std::fprintf(out, "interval,snapshot_writes,min_wall_s,overhead_pct\n");
  for (const auto& r : results) {
    std::fprintf(out, "%zu,%zu,%.4f,%+.2f\n", r.interval, r.snapshots, r.min_seconds,
                 100.0 * (r.min_seconds - base) / base);
  }
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
