// socmix — command-line front end to the measurement library.
//
//   socmix info     --edges g.txt                    structural report
//   socmix measure  --edges g.txt [--sources N]      mixing measurement
//   socmix sample   --edges g.txt --method bfs --size 10000 --out s.txt
//   socmix trim     --edges g.txt --min-degree 5 --out t.txt
//   socmix sybil    --edges g.txt [--w 2,4,..]       SybilLimit admission sweep
//   socmix generate --dataset "Physics 1" [--nodes N] --out g.txt
//
// Every subcommand also accepts --dataset NAME (+ --nodes) in place of
// --edges to run on a synthetic Table-1 stand-in, and --seed for
// reproducibility. An --edges file is read as undirected: a directed crawl
// is symmetrized on load. A flag the subcommand does not read is refused
// by name (exit 1) rather than ignored, and so are a second input and
// --nodes without --dataset, and the retired `convert`.
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "core/measurement.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/io.hpp"
#include "graph/sampling.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/stats.hpp"
#include "graph/trim.hpp"
#include "markov/conductance.hpp"
#include "markov/mixing_time.hpp"
#include "sybil/admission_engine.hpp"
#include "sybil/sybil_limit.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace socmix;

namespace {

int usage() {
  std::fputs(
      "usage: socmix <info|measure|sample|trim|sybil|generate> [options]\n"
      "  input:  --edges FILE | --dataset NAME [--nodes N]   (--seed N)\n"
      "          (an --edges file is symmetrized on load: arcs u v and v u\n"
      "          are one undirected edge)\n"
      "          --pack FILE.smxg   load a packed container (measure/sybil;\n"
      "                             see tools/graph_pack; stores the LCC)\n"
      "  obs:    --metrics-out FILE (.json/.csv)  --trace-out FILE  --progress\n"
      "          --sample-out FILE.jsonl [--sample-interval-ms N]   in-run time-series\n"
      "          --bench-out FILE        BENCH json of phase timings (schema\n"
      "                                  socmix-bench/1; see tools/bench_compare)\n"
      "  faults: --fault-inject SPEC             <site>:<nth>[:abort|:error]\n"
      "  perf:   --threads N                     kernel worker threads (0 = auto)\n"
      "          (SOCMIX_SIMD=avx512|avx2|scalar forces the simd kernel tier)\n"
      "  info                                    structural report\n"
      "  measure [--sources N] [--steps N] [--eps X] [--tvd-out FILE]\n"
      "          [--spectral on|off]             skip the Lanczos phase\n"
      "          (exits 3 if Lanczos does not converge or fails its certificate;\n"
      "          vertex ordering is pack-time: graph_pack --reorder rcm)\n"
      "  sample  --method bfs|uniform|walk --size N --out FILE\n"
      "  trim    --min-degree K --out FILE\n"
      "  sybil   [--w 2,4,8,16] [--suspects N] [--verifiers N]\n"
      "                                          cached-verifier admission engine sweep\n"
      "                                          (takes no perf knobs but --threads)\n"
      "  generate --dataset NAME [--nodes N] --out FILE\n",
      stderr);
  return 2;
}

/// Flags main() reads for every subcommand.
constexpr std::string_view kSharedFlags[] = {
    "threads", "metrics-out", "trace-out", "sample-out", "sample-interval-ms",
    "progress", "bench-out", "bench-name", "bench-repeats", "fault-inject"};

/// Refuses, by name, any flag that neither main() nor the subcommand reads
/// (`command_flags`, plus load_input's --edges/--dataset/--nodes/--seed
/// when `reads_input`), so a misspelt flag never runs with its default.
void refuse_unknown_flags(const util::Cli& cli, bool reads_input,
                          std::initializer_list<std::string_view> command_flags) {
  std::vector<std::string_view> known{std::begin(kSharedFlags), std::end(kSharedFlags)};
  if (reads_input) known.insert(known.end(), {"edges", "dataset", "nodes", "seed"});
  known.insert(known.end(), command_flags);
  cli.refuse_unknown(known);
}

/// Refuses, naming both flags, a second input of --pack/--edges/--dataset
/// and --nodes with any input but --dataset: the flag would be dropped.
void refuse_conflicting_inputs(const util::Cli& cli) {
  cli.refuse_together("pack", "edges", "give one input");
  cli.refuse_together("pack", "dataset", "give one input");
  cli.refuse_together("edges", "dataset", "give one input");
  cli.refuse_together("nodes", "pack", "--nodes sizes a --dataset build only");
  cli.refuse_together("nodes", "edges", "--nodes sizes a --dataset build only");
}

/// Loads --edges FILE or builds --dataset NAME; exits with a message on error.
graph::Graph load_input(const util::Cli& cli, std::string& name) {
  refuse_conflicting_inputs(cli);
  const auto seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));
  if (cli.has("edges")) {
    name = cli.get("edges", "");
    const auto loaded = graph::load_edge_list_file(name);
    std::fprintf(stderr, "loaded %s: %u nodes, %llu edges\n", name.c_str(),
                 loaded.graph.num_nodes(),
                 static_cast<unsigned long long>(loaded.graph.num_edges()));
    return loaded.graph;
  }
  const std::string dataset = cli.get("dataset", "");
  if (dataset.empty()) {
    throw std::runtime_error{"need --edges FILE or --dataset NAME"};
  }
  const auto spec = gen::find_dataset(dataset);
  if (!spec) throw std::runtime_error{"unknown dataset '" + dataset + "'"};
  name = spec->name + " stand-in";
  const auto nodes = static_cast<graph::NodeId>(
      cli.get_count("nodes", 0, std::numeric_limits<graph::NodeId>::max()));
  return gen::build_dataset(*spec, nodes, seed);
}

/// The measured graph for measure/sybil: either the largest component of
/// a loaded/generated edge list (owned), or a borrowed view over a loaded
/// .smxg container (--pack; tools/graph_pack already extracted the LCC at
/// pack time). The container must outlive the measurement, so it lives
/// here, in the subcommand's scope.
struct ComponentInput {
  std::string name;
  graph::Graph owned;
  graph::sharded::MappedGraph pack;
  bool packed = false;

  [[nodiscard]] const graph::Graph& graph() const noexcept {
    return packed ? pack.view() : owned;
  }
};

ComponentInput load_component_input(const util::Cli& cli) {
  ComponentInput in;
  if (cli.has("pack")) {
    refuse_conflicting_inputs(cli);
    in.name = cli.get("pack", "");
    in.pack = graph::sharded::MappedGraph{in.name};
    in.packed = true;
    std::fprintf(stderr, "loaded %s: %u nodes, %llu edges\n", in.name.c_str(),
                 in.pack.view().num_nodes(),
                 static_cast<unsigned long long>(in.pack.view().num_edges()));
  } else {
    in.owned = graph::largest_component(load_input(cli, in.name)).graph;
  }
  return in;
}

void save_output(const graph::Graph& g, const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot open " + path};
  graph::save_edge_list(g, out);
  std::fprintf(stderr, "wrote %s: %u nodes, %llu edges\n", path.c_str(), g.num_nodes(),
               static_cast<unsigned long long>(g.num_edges()));
}

int cmd_info(const util::Cli& cli) {
  refuse_unknown_flags(cli, true, {});
  std::string name;
  const auto raw = load_input(cli, name);
  const auto lcc = graph::largest_component(raw).graph;
  const auto seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));
  util::Rng rng{seed};

  const auto deg = graph::degree_stats(lcc);
  std::printf("%s\n", name.c_str());
  std::printf("largest component: n=%s m=%s (of %s raw)\n",
              util::with_commas(lcc.num_nodes()).c_str(),
              util::with_commas(static_cast<std::int64_t>(lcc.num_edges())).c_str(),
              util::with_commas(raw.num_nodes()).c_str());
  std::printf("degrees: min=%u median=%.0f mean=%.2f max=%u\n", deg.min, deg.median,
              deg.mean, deg.max);
  std::printf("clustering (1k sample): %.4f\n",
              graph::average_clustering(lcc, 1000, rng));
  std::printf("effective diameter (90%%): %.0f\n",
              graph::effective_diameter(lcc, 8, 0.9, rng));
  std::printf("degeneracy: %u\n", graph::degeneracy(lcc));
  std::printf("assortativity: %+.4f\n", graph::degree_assortativity(lcc));
  const auto cut = markov::spectral_cut(lcc);
  std::printf("spectral cut: conductance %.5f (side %zu); Cheeger %.5f..%.5f\n",
              cut.cut.conductance, cut.cut.set_size, cut.cheeger_lower,
              cut.cheeger_upper);
  return 0;
}

/// The --tvd-out file, open for writing; null without the flag.
using TvdFile = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

/// Opens --tvd-out before the run, so an unwritable path fails before the
/// work instead of after it.
TvdFile open_tvd_out(const util::Cli& cli) {
  if (!cli.has("tvd-out")) return {nullptr, &std::fclose};
  const std::string path = cli.get("tvd-out", "");
  TvdFile out{std::fopen(path.c_str(), "w"), &std::fclose};
  if (!out) throw std::runtime_error{"--tvd-out=" + path + ": cannot open for writing"};
  return out;
}

/// Dumps every source's full TVD trajectory at full double precision —
/// the artifact to compare byte-for-byte between builds, thread counts and
/// pack kinds.
void write_tvd(const markov::SampledMixing& sampled, TvdFile out, const std::string& path) {
  std::fprintf(out.get(), "# source tvd(t=1) .. tvd(t=%zu)\n", sampled.max_steps());
  for (std::size_t s = 0; s < sampled.num_sources(); ++s) {
    std::fprintf(out.get(), "%u", sampled.sources()[s]);
    for (std::size_t t = 1; t <= sampled.max_steps(); ++t) {
      std::fprintf(out.get(), " %.17g", sampled.tvd(s, t));
    }
    std::fputc('\n', out.get());
  }
  const bool write_failed = std::ferror(out.get()) != 0;
  if (std::fclose(out.release()) != 0 || write_failed) {
    throw std::runtime_error{"--tvd-out=" + path + ": write failed"};
  }
  std::fprintf(stderr, "wrote %s: %zu trajectories\n", path.c_str(),
               sampled.num_sources());
}

int cmd_measure(const util::Cli& cli) {
  // Every flag is checked before the input is loaded; the retired knobs
  // first, so they are refused with their reason.
  core::refuse_engine_knobs(cli);
  refuse_unknown_flags(cli, true,
                       {"pack", "sources", "steps", "spectral", "eps", "tvd-out"});
  core::MeasurementOptions options;
  options.sources = cli.get_count("sources", 200);
  // With no sampled walks there are no trajectories to dump.
  if (options.sources == 0 && cli.has("tvd-out")) {
    throw std::invalid_argument{"--tvd-out=" + cli.get("tvd-out", "") +
                                ": --sources 0 samples no trajectories to write"};
  }
  // A sampled phase of zero steps would report "average 0.0 steps", which
  // reads as instant mixing.
  options.max_steps = options.sources > 0 ? cli.get_positive("steps", 400)
                                          : cli.get_count("steps", 400);
  options.seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));
  const std::string spectral = cli.get("spectral", "on");
  if (spectral == "on" || spectral == "off") {
    options.spectral = spectral == "on";
  } else {
    throw std::invalid_argument{"--spectral=" + spectral + ": expected on or off"};
  }
  const double eps = cli.get_f64("eps", markov::kHeadlineEpsilon);
  if (!(eps > 0.0 && eps < 1.0)) {
    throw std::invalid_argument{"--eps=" + cli.get("eps", "") +
                                ": expected a variation distance in (0, 1)"};
  }
  const ComponentInput input = load_component_input(cli);

  TvdFile tvd_out = open_tvd_out(cli);
  const auto report = core::measure_mixing(input.graph(), input.name, options);
  if (tvd_out) write_tvd(*report.sampled, std::move(tvd_out), cli.get("tvd-out", ""));
  std::printf("%s\n", core::summarize(report).c_str());
  if (report.spectral_ran) {
    std::printf("T(%.3g) bounds: %.1f .. %.1f steps\n", eps, report.lower_bound(eps),
                report.upper_bound(eps));
  }
  if (report.sampled.has_value()) {
    const auto worst = report.sampled->worst_mixing_time(eps);
    const auto avg = report.sampled->average_mixing_time(eps);
    if (worst != markov::kNotMixed) {
      std::printf("sampled: worst source mixed in %zu steps; ", worst);
    } else {
      std::printf("sampled: worst source NOT mixed within %zu steps; ",
                  options.max_steps);
    }
    std::printf("average %.1f steps (%zu/%zu unmixed)\n", avg.mean_steps,
                avg.unmixed_sources, report.sampled->num_sources());
  }
  // A mu the solver could not certify is not a result: fail loudly.
  if (report.spectral_ran && !report.spectral_converged) {
    std::fprintf(stderr,
                 "socmix measure: error: lanczos-unconverged: %zu operator applies "
                 "(cap %zu), certified residual %.3g (limit %.3g)\n",
                 report.lanczos_iterations, options.lanczos.max_iterations,
                 report.lanczos_certified_residual,
                 linalg::kLanczosCertificateSlack * options.lanczos.tolerance);
    return core::kExitUnconverged;
  }
  return 0;
}

int cmd_sample(const util::Cli& cli) {
  refuse_unknown_flags(cli, true, {"size", "method", "out"});
  std::string name;
  const auto g = load_input(cli, name);
  // A 0-node sample is an empty file, not a sample.
  const auto size = static_cast<graph::NodeId>(
      cli.get_positive("size", 10000, std::numeric_limits<graph::NodeId>::max()));
  const std::string method = cli.get("method", "bfs");
  util::Rng rng{static_cast<std::uint64_t>(cli.get_i64("seed", 42))};

  graph::ExtractedSubgraph sample;
  if (method == "bfs") sample = graph::bfs_sample(g, size, rng);
  else if (method == "uniform") sample = graph::uniform_node_sample(g, size, rng);
  else if (method == "walk") sample = graph::random_walk_sample(g, size, rng);
  else throw std::runtime_error{"unknown --method '" + method + "'"};

  save_output(sample.graph, cli.get("out", "sample.txt"));
  return 0;
}

int cmd_trim(const util::Cli& cli) {
  refuse_unknown_flags(cli, true, {"min-degree", "out"});
  std::string name;
  const auto g = load_input(cli, name);
  const auto k = static_cast<graph::NodeId>(
      cli.get_count("min-degree", 2, std::numeric_limits<graph::NodeId>::max()));
  const auto trimmed = graph::trim_min_degree(g, k);
  std::fprintf(stderr, "trim to min degree %u: kept %u of %u nodes\n", k,
               trimmed.graph.num_nodes(), g.num_nodes());
  save_output(trimmed.graph, cli.get("out", "trimmed.txt"));
  return 0;
}

/// Parses --w as a comma-separated list of positive route lengths; throws
/// naming --w and the offending token on anything else (an empty list is
/// one empty token).
std::vector<std::size_t> parse_route_lengths(const util::Cli& cli) {
  // split() returns views: the flag string must outlive the loop.
  const std::string flag = cli.get("w", "2,4,8,16,24,32");
  std::vector<std::size_t> lengths;
  for (const auto token : util::split(flag, ',')) {
    const auto v = util::parse_i64(token);
    if (!v || *v <= 0) {
      throw std::invalid_argument{"--w: '" + std::string{token} +
                                  "' is not a positive route length"};
    }
    lengths.push_back(static_cast<std::size_t>(*v));
  }
  return lengths;
}

int cmd_sybil(const util::Cli& cli) {
  // Every flag is checked before the input is loaded.
  sybil::AdmissionSweepConfig config;
  core::refuse_engine_knobs(cli);
  refuse_unknown_flags(cli, true, {"pack", "w", "suspects", "verifiers"});
  config.route_lengths = parse_route_lengths(cli);
  config.suspect_sample = cli.get_count("suspects", 200);
  config.verifier_sample = cli.get_positive("verifiers", 3);
  config.seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));
  const ComponentInput input = load_component_input(cli);
  sybil::AdmissionEngineStats engine_stats;
  config.engine_stats = &engine_stats;

  const auto points = sybil::admission_sweep(input.graph(), config);
  util::TextTable table;
  table.header({"w", "honest admitted"});
  for (const auto& point : points) {
    table.row({std::to_string(point.route_length),
               util::fmt_fixed(100.0 * point.admitted_fraction, 1) + "%"});
  }
  table.print(std::cout);
  std::fprintf(stderr,
               "engine: %llu route hops walked, %llu saved vs per-length rewalk; "
               "precompute %.3fs, verify %.3fs\n",
               static_cast<unsigned long long>(engine_stats.route_hops_walked),
               static_cast<unsigned long long>(engine_stats.route_hops_saved),
               engine_stats.precompute_seconds, engine_stats.query_seconds);
  return 0;
}

int cmd_generate(const util::Cli& cli) {
  refuse_unknown_flags(cli, true, {"out"});
  std::string name;
  const auto g = load_input(cli, name);  // --dataset path of load_input
  save_output(g, cli.get("out", "generated.txt"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::Cli cli{argc - 1, argv + 1};
  try {
    if (command == "convert") {
      throw std::invalid_argument{
          "retired; every --edges input is symmetrized on load, so run "
          "`socmix trim --edges FILE --min-degree 0 --out FILE` to write the "
          "undirected graph"};
    }
    util::set_thread_count(cli.get_count("threads", 0));
    core::configure_observability(cli);
    // Opt-in only for the CLI: an explicit --bench-out turns the phase
    // timings measure_mixing records into a BENCH artifact at exit.
    if (cli.has("bench-out")) bench::Harness::configure_process(cli);
    core::configure_faults(cli);
    if (command == "info") return cmd_info(cli);
    if (command == "measure") return cmd_measure(cli);
    if (command == "sample") return cmd_sample(cli);
    if (command == "trim") return cmd_trim(cli);
    if (command == "sybil") return cmd_sybil(cli);
    if (command == "generate") return cmd_generate(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "socmix %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
