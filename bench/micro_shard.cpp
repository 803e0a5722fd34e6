// Out-of-core roofline of the evolution engine (--sharded on compressed
// packs).
//
// For one Table-1 stand-in of each mixing class this times the batched
// sweep (step_with_tvd over a source block, the sampled measurement's
// inner loop) through engines that are bit-identical by contract
// (tests/markov/test_shard_parity.cpp):
//
//   * dense — BatchedEvolver with its default one-shard plan over the
//             in-memory CSR, warm: the roofline every in-memory graph and
//             raw pack runs at.
//
// A cold section measures the out-of-core paths. Each round evicts the
// container's pages (posix_fadvise DONTNEED — real on the ext4-backed
// runners; filesystems that ignore the advice only make "cold" read warm,
// never wrong) and maps it fresh, so every sweep pays actual I/O:
//
//   * s1-cold       — a raw ADJ4 pack swept as one shard, as every raw
//                     pack runs: the kernels fault the mapped CSR in; the
//                     cold baseline;
//   * s16-adjc-cold — the compressed container at 16 shards: half the
//                     bytes off disk, decoded one shard ahead by the shard
//                     pipeline (on its worker thread on any multi-core
//                     host, inline on one core).
//
// Cold rows report the speedup over s1-cold in the ratio column and the
// accumulated markov.shard.prefetch_stall_seconds — the direct evidence
// of how much decode the compute failed to hide. Every row records the
// sweep throughput in half-edges/s, the roofline axis. Absolute seconds
// are the per-variant minima over rounds.
//
//   micro_shard [--nodes N] [--steps N] [--rounds N] [--cold-steps N] [--quick]
//               [--out bench_results/micro_shard.csv]
//               [--bench-out PATH] [--bench-repeats N]
//
// --quick shrinks everything for CI smoke coverage. Every timed run also
// reports through the process bench::Harness, so the run additionally
// emits bench_results/BENCH_micro-shard.json (entries
// sweep/<dataset>/{dense,s1-cold,s16-adjc-cold}, one repeat per round) —
// the committed bench_results/baseline/BENCH_micro-shard.json and the CI
// `bench_compare --require` gate key on these entry names.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_harness/harness.hpp"
#include "gen/datasets.hpp"
#include "graph/graph.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/stationary.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace socmix;

namespace {

constexpr std::uint64_t kSeed = 42;

const char* class_name(gen::MixingClass c) {
  switch (c) {
    case gen::MixingClass::kFast: return "fast";
    case gen::MixingClass::kModerate: return "moderate";
    case gen::MixingClass::kSlow: return "slow";
  }
  return "?";
}

struct Row {
  std::string dataset;
  std::string mixing_class;
  std::string variant;  // "dense" | "s1-cold" | "s16-adjc-cold"
  std::uint32_t shards = 0;
  bool compressed = false;
  graph::NodeId nodes = 0;
  std::uint64_t edges = 0;
  double base_seconds = 0.0;   // the row's baseline: itself, or s1-cold
  double seconds = 0.0;
  double medge_per_s = 0.0;    // sweep throughput, 1e6 half-edges/s
  double stall_seconds = 0.0;  // pipeline stall total across rounds (cold rows)
};

// Times the warm in-memory sweep: a fresh evolver per timed run keeps
// lane-buffer placement luck out of the min.
double time_dense(const graph::Graph& g, std::span<const graph::NodeId> sources,
                  std::size_t steps, std::size_t rounds, const std::string& entry) {
  const std::vector<double> pi = markov::stationary_distribution(g);
  std::vector<double> tvd(sources.size());
  double min_seconds = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    markov::BatchedEvolver evolver{g};
    evolver.seed_point_masses(sources);
    const double seconds = bench::Harness::process().time_once(entry, [&] {
      for (std::size_t t = 0; t < steps; ++t) evolver.step_with_tvd(pi, tvd);
    });
    if (tvd[0] < 0.0) std::abort();  // keep the loops observable
    if (r == 0 || seconds < min_seconds) min_seconds = seconds;
  }
  return min_seconds;
}

// Evict the pack's pages so the next sweep pays real reads. The fsync
// first matters: the pack was just written, and DONTNEED cannot evict
// dirty pages. Advice, not an order: a filesystem that ignores it only
// turns "cold" warm, which shrinks the measured pipeline win but never
// fabricates one.
void drop_page_cache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

double stall_seconds_total() {
  for (const auto& h : obs::Registry::instance().snapshot().histograms) {
    if (h.name == "markov.shard.prefetch_stall_seconds") return h.sum;
  }
  return 0.0;
}

struct ColdTiming {
  double min_seconds = 0.0;
  double stall_seconds = 0.0;  // prefetch_stall_seconds delta over all rounds
};

// Times one cold out-of-core variant at `shards` shards: per round the
// container's pages are dropped and the file mapped fresh (CRC
// verification off — it would warm the cache right back up; tier-1 covers
// integrity), so the sweep itself faults every adjacency byte in. Steps
// is deliberately tiny (default 1): a released window's pages stay in the
// page cache, so only the first sweep is cold, and it is exactly the
// within-sweep overlap — compute shard k while shard k+1 streams — the
// pipeline claims. More steps only dilute the cold sweep with warm ones.
ColdTiming time_cold_variant(const graph::Graph& g, const std::string& pack,
                             std::span<const graph::NodeId> sources,
                             std::uint32_t shards, std::size_t steps,
                             std::size_t rounds, const std::string& entry) {
  const std::vector<double> pi = markov::stationary_distribution(g);
  std::vector<double> tvd(sources.size());
  ColdTiming out;
  const double stall_before = stall_seconds_total();
  for (std::size_t r = 0; r < rounds; ++r) {
    drop_page_cache(pack);
    const graph::sharded::MappedGraph mapped{pack, {.verify = false}};
    markov::BatchedEvolver evolver{
        mapped.view(), 0.0, markov::BatchedEvolver::kDefaultBlock,
        {graph::ShardPlan::balanced(mapped.view().offsets(), shards), &mapped}};
    evolver.seed_point_masses(sources);
    const double seconds = bench::Harness::process().time_once(entry, [&] {
      for (std::size_t t = 0; t < steps; ++t) evolver.step_with_tvd(pi, tvd);
    });
    if (tvd[0] < 0.0) std::abort();  // keep the loops observable
    if (r == 0 || seconds < out.min_seconds) out.min_seconds = seconds;
  }
  out.stall_seconds = stall_seconds_total() - stall_before;
  return out;
}

std::vector<graph::NodeId> spread_sources(const graph::Graph& g, std::size_t count) {
  std::vector<graph::NodeId> sources;
  const graph::NodeId stride =
      std::max<graph::NodeId>(1, g.num_nodes() / static_cast<graph::NodeId>(count));
  for (graph::NodeId v = 0; sources.size() < count && v < g.num_nodes(); v += stride) {
    sources.push_back(v);
  }
  return sources;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  const util::Cli cli{argc, argv};
  bench::Harness::configure_process(cli);
  const bool quick = cli.get_flag("quick");
  const auto nodes_override = static_cast<graph::NodeId>(cli.get_count_or_exit(
      "nodes", 0, std::numeric_limits<graph::NodeId>::max()));
  const std::size_t steps = cli.get_count_or_exit("steps", quick ? 10 : 50);
  // >= 5 rounds so the BENCH artifact's per-entry median is robust for the
  // regression gate.
  const std::size_t rounds =
      cli.get_count_or_exit("rounds", bench::Harness::process_repeats(5));
  const std::size_t cold_steps = cli.get_count_or_exit("cold-steps", 1);
  bench::Harness::process().set_flag("quick", quick ? "true" : "false");
  bench::Harness::process().set_flag("rounds", std::to_string(rounds));
  bench::Harness::process().set_flag("steps", std::to_string(steps));
  bench::Harness::process().set_flag("cold_steps", std::to_string(cold_steps));
  bench::Harness::process().set_flag("cold_protocol", "fsync+fadvise-dontneed");

  // First Table-1 stand-in of each mixing class, in paper row order (same
  // picks as serve_admission, so the lanes are comparable).
  std::vector<gen::DatasetSpec> picks;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    bool seen = false;
    for (const auto& p : picks) seen |= p.paper_mixing_class == spec.paper_mixing_class;
    if (!seen) picks.push_back(spec);
  }

  std::vector<Row> rows;
  for (const gen::DatasetSpec& spec : picks) {
    const graph::NodeId nodes =
        nodes_override != 0
            ? nodes_override
            : (quick ? std::min<graph::NodeId>(8'000, spec.default_nodes)
                     : spec.default_nodes);
    const graph::Graph g = gen::build_dataset(spec, nodes, kSeed);
    const graph::NodeId n = g.num_nodes();
    std::fprintf(stderr, "%s (%s): n=%u m=%llu\n", spec.name.c_str(),
                 class_name(spec.paper_mixing_class), n,
                 static_cast<unsigned long long>(g.num_edges()));
    const std::vector<graph::NodeId> sources = spread_sources(g, 32);
    const std::string prefix = "sweep/" + util::slugify(spec.name);

    const double dense_s = time_dense(g, sources, steps, rounds, prefix + "/dense");
    rows.push_back({spec.name, class_name(spec.paper_mixing_class), "dense", 1, false, n,
                    g.num_edges(), dense_s, dense_s,
                    static_cast<double>(g.num_half_edges()) * static_cast<double>(steps) /
                        dense_s / 1e6});

    // Cold rows: a raw pack swept as one shard and a compressed pack at 16
    // shards, every round from an evicted page cache. s1-cold is the
    // baseline the ratio column compares against. The cold sweeps use a
    // narrow 8-lane block (the scale-smoke lane's --sources 8):
    // bigger-than-RAM sweeps are I/O-bound by construction, and a full
    // 32-lane block of compute at bench scale would bury the I/O being
    // measured — wide blocks are the warm row's job above.
    const std::vector<graph::NodeId> cold_sources = spread_sources(g, 8);
    double cold_raw_min = 0.0;
    for (const bool compressed : {false, true}) {
      const char* variant = compressed ? "s16-adjc-cold" : "s1-cold";
      const std::uint32_t shards = compressed ? 16 : 1;
      const fs::path pack = fs::temp_directory_path() /
                            ("micro_shard_" + util::slugify(spec.name) +
                             (compressed ? "_adjc" : "") + ".smxg");
      graph::sharded::WriteOptions write_options;
      write_options.compress = compressed;
      graph::sharded::write_smxg_file(pack.string(), g,
                                      graph::ShardPlan::balanced(g.offsets(), shards),
                                      write_options);
      const ColdTiming t = time_cold_variant(g, pack.string(), cold_sources, shards,
                                             cold_steps, rounds, prefix + "/" + variant);
      fs::remove(pack);
      if (!compressed) cold_raw_min = t.min_seconds;
      rows.push_back({spec.name, class_name(spec.paper_mixing_class), variant, shards,
                      compressed, n, g.num_edges(), cold_raw_min, t.min_seconds,
                      static_cast<double>(g.num_half_edges()) *
                          static_cast<double>(cold_steps) / t.min_seconds / 1e6,
                      t.stall_seconds});
    }
  }

  // For the dense row "base s" is itself; for cold rows it is the s1-cold
  // raw sweep, so base/s reads as the compression speedup.
  util::TextTable table;
  table.header({"dataset", "class", "variant", "base s", "s", "base/s", "Medge/s",
                "stall s"});
  for (const Row& row : rows) {
    table.row({row.dataset, row.mixing_class, row.variant,
               util::fmt_fixed(row.base_seconds, 4), util::fmt_fixed(row.seconds, 4),
               util::fmt_fixed(row.base_seconds / row.seconds, 2),
               util::fmt_fixed(row.medge_per_s, 1),
               util::fmt_fixed(row.stall_seconds, 4)});
  }
  table.print(std::cout);

  const std::string out =
      cli.get("out", util::bench_results_dir().value_or(".") + "/micro_shard.csv");
  util::CsvWriter csv{out};
  csv.row({"dataset", "class", "variant", "shards", "compressed", "nodes", "edges",
           "base_seconds", "seconds", "ratio", "medge_per_s", "stall_seconds"});
  for (const Row& row : rows) {
    csv.row({row.dataset, row.mixing_class, row.variant, std::to_string(row.shards),
             row.compressed ? "yes" : "no", std::to_string(row.nodes),
             std::to_string(row.edges), util::fmt_sci(row.base_seconds, 6),
             util::fmt_sci(row.seconds, 6),
             util::fmt_fixed(row.base_seconds / row.seconds, 3),
             util::fmt_fixed(row.medge_per_s, 2), util::fmt_sci(row.stall_seconds, 4)});
  }
  if (csv.ok()) std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}
