// Sharded-vs-dense roofline of the evolution engine (--sharded).
//
// For one Table-1 stand-in of each mixing class this times the batched
// sweep (step_with_tvd over a 32-source block, the sampled measurement's
// inner loop) through three engines that are bit-identical by contract
// (tests/markov/test_shard_parity.cpp):
//
//   * dense      — BatchedEvolver with its default one-shard plan, the
//                  in-memory baseline;
//   * s<N>       — the same engine over the same heap CSR with a balanced
//                  N-shard plan: isolates the pure sweep-phasing cost
//                  (per-shard range dispatch + standalone TVD pass);
//   * s<N>-mapped — the same sharded sweep through a `.smxg` container
//                  (mmap + madvise windowing): adds the paging cost the
//                  out-of-core path pays when the CSR streams from disk.
//
// A second, cold section measures the shard pipeline out of core. Each
// round evicts the container's pages (posix_fadvise DONTNEED — real on the
// ext4-backed runners; filesystems that ignore the advice only make
// "cold" read warm, never wrong) and maps it fresh, so every sweep pays
// actual I/O, then times the 16-shard sweep over both adjacency
// encodings. The pipeline stages windows on its worker thread on any
// multi-core host (inline on one core):
//
//   * s16-cold      — raw ADJ4: the worker faults shard k+1 in behind
//                     shard k's compute; the cold baseline;
//   * s16-adjc-cold — the compressed container: half the bytes off disk,
//                     decoded one shard ahead.
//
// Cold rows report the speedup over s16-cold in the ratio column and the
// accumulated markov.shard.prefetch_stall_seconds — the direct evidence
// of how much I/O the compute failed to hide.
//
// Alongside the slowdown it records the boundary half-edge fraction (the
// cross-shard gather traffic of the plan) and the sweep throughput in
// half-edges/s — the roofline axis: dense is compute/RAM-bandwidth bound,
// mapped shards add the fault/advise floor, and the gap between the three
// is exactly what `--sharded auto` trades for residency. Pairing: per
// round the dense and sharded run adjacently with the
// order alternating, the reported slowdown is the median of the paired
// per-round ratios, and absolute seconds are the per-variant minima.
//
//   micro_shard [--nodes N] [--steps N] [--rounds N] [--cold-steps N] [--quick]
//               [--out bench_results/micro_shard.csv]
//               [--bench-out PATH] [--bench-repeats N]
//
// --quick shrinks everything for CI smoke coverage. Every timed run also
// reports through the process bench::Harness, so the run additionally
// emits bench_results/BENCH_micro-shard.json (entries
// sweep/<dataset>/{dense,s4,s16,s16-mapped,s16-cold,s16-adjc-cold}, one
// repeat per round) — the committed
// bench_results/baseline/BENCH_micro-shard.json and the CI
// `bench_compare --require` gate key on these entry names.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <span>
#include <string>
#include <utility>
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
  std::string variant;  // "s4" | "s16" | "s16-mapped"
  std::uint32_t shards = 0;
  bool mapped = false;
  graph::NodeId nodes = 0;
  std::uint64_t edges = 0;
  double boundary_fraction = 0.0;  // cross-shard half-edges / all half-edges
  double dense_seconds = 0.0;
  double shard_seconds = 0.0;
  double slowdown = 0.0;       // median paired dense/sharded ratio (<= 1 is cost)
  double medge_per_s = 0.0;    // sharded sweep throughput, 1e6 half-edges/s
  double stall_seconds = 0.0;  // pipeline stall total across rounds (cold rows)
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct PairTiming {
  double dense_min = 0.0;
  double shard_min = 0.0;
  double ratio = 0.0;  // median over rounds of the paired dense/sharded ratio
};

// Times one (dense, sharded) pair, interleaved round by round with the
// order swapped on odd rounds: a fresh evolver per timed run keeps
// lane-buffer placement luck out of the min, and the paired per-round
// ratio cancels co-tenant bursts the ratio-of-mins would mistake for a
// real gap.
PairTiming time_shard_pair(const graph::Graph& g, const graph::Graph& view,
                           const graph::ShardPlan& plan,
                           const graph::sharded::MappedGraph* mapped,
                           std::span<const graph::NodeId> sources, std::size_t steps,
                           std::size_t rounds, const std::string& entry_prefix,
                           const std::string& variant) {
  const std::vector<double> pi = markov::stationary_distribution(g);
  std::vector<double> tvd(sources.size());
  const auto run_dense = [&] {
    markov::BatchedEvolver evolver{g};
    evolver.seed_point_masses(sources);
    return bench::Harness::process().time_once(entry_prefix + "/dense", [&] {
      for (std::size_t t = 0; t < steps; ++t) evolver.step_with_tvd(pi, tvd);
    });
  };
  const auto run_sharded = [&] {
    markov::BatchedEvolver evolver{
        view, 0.0, markov::BatchedEvolver::kDefaultBlock, {plan, mapped}};
    evolver.seed_point_masses(sources);
    return bench::Harness::process().time_once(entry_prefix + "/" + variant, [&] {
      for (std::size_t t = 0; t < steps; ++t) evolver.step_with_tvd(pi, tvd);
    });
  };
  PairTiming out;
  std::vector<double> ratios;
  ratios.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    double dense_s = 0.0;
    double shard_s = 0.0;
    if (r % 2 == 0) {
      dense_s = run_dense();
      shard_s = run_sharded();
    } else {
      shard_s = run_sharded();
      dense_s = run_dense();
    }
    if (tvd[0] < 0.0) std::abort();  // keep the loops observable
    if (r == 0 || dense_s < out.dense_min) out.dense_min = dense_s;
    if (r == 0 || shard_s < out.shard_min) out.shard_min = shard_s;
    ratios.push_back(dense_s / shard_s);
  }
  out.ratio = median(std::move(ratios));
  return out;
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
#if SOCMIX_OBS_ENABLED
  for (const auto& h : obs::Registry::instance().snapshot().histograms) {
    if (h.name == "markov.shard.prefetch_stall_seconds") return h.sum;
  }
#endif
  return 0.0;
}

struct ColdTiming {
  double min_seconds = 0.0;
  double stall_seconds = 0.0;  // prefetch_stall_seconds delta over all rounds
};

// Times one cold out-of-core variant: per round the container's pages are
// dropped and the file mapped fresh (CRC verification off — it would warm
// the cache right back up; tier-1 covers integrity), so the sweep itself
// faults every adjacency byte in. Steps is deliberately tiny (default 1):
// a released window's pages stay in the page cache, so only the first
// sweep is cold, and it is exactly the within-sweep overlap — compute
// shard k while shard k+1 streams — the pipeline claims. More steps only
// dilute the cold sweep with warm ones.
ColdTiming time_cold_variant(const graph::Graph& g, const std::string& pack,
                             std::span<const graph::NodeId> sources,
                             std::size_t steps, std::size_t rounds,
                             const std::string& entry) {
  const std::vector<double> pi = markov::stationary_distribution(g);
  std::vector<double> tvd(sources.size());
  ColdTiming out;
  const double stall_before = stall_seconds_total();
  for (std::size_t r = 0; r < rounds; ++r) {
    drop_page_cache(pack);
    const graph::sharded::MappedGraph mapped{pack, {.verify = false}};
    markov::BatchedEvolver evolver{mapped.view(), 0.0,
                                   markov::BatchedEvolver::kDefaultBlock,
                                   {mapped.pack_plan(), &mapped}};
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
  const auto nodes_override = static_cast<graph::NodeId>(cli.get_i64("nodes", 0));
  const auto steps = static_cast<std::size_t>(cli.get_i64("steps", quick ? 10 : 50));
  // >= 5 rounds so the BENCH artifact's per-entry median is robust for the
  // regression gate.
  const auto rounds = static_cast<std::size_t>(
      cli.get_i64("rounds", static_cast<std::int64_t>(bench::Harness::process_repeats(5))));
  const auto cold_steps = static_cast<std::size_t>(cli.get_i64("cold-steps", 1));
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

    // Heap-CSR sharded variants: pure sweep-phasing cost, no paging.
    for (const std::uint32_t shards : {4u, 16u}) {
      const graph::ShardPlan plan = graph::ShardPlan::balanced(g.offsets(), shards);
      const double boundary =
          static_cast<double>(graph::count_boundary_half_edges(g, plan)) /
          static_cast<double>(g.num_half_edges());
      const std::string variant = "s" + std::to_string(shards);
      const PairTiming t = time_shard_pair(g, g, plan, nullptr, sources, steps, rounds,
                                           prefix, variant);
      rows.push_back({spec.name, class_name(spec.paper_mixing_class), variant, shards,
                      false, n, g.num_edges(), boundary, t.dense_min, t.shard_min,
                      t.ratio,
                      static_cast<double>(g.num_half_edges()) *
                          static_cast<double>(steps) / t.shard_min / 1e6});
    }

    // Mapped variant: the same 16-shard sweep through a `.smxg` container,
    // paying the mmap + madvise windowing the out-of-core path relies on.
    const fs::path pack =
        fs::temp_directory_path() / ("micro_shard_" + util::slugify(spec.name) + ".smxg");
    const graph::ShardPlan plan = graph::ShardPlan::balanced(g.offsets(), 16);
    graph::sharded::write_smxg_file(pack.string(), g, plan);
    {
      const graph::sharded::MappedGraph mapped{pack.string()};
      const double boundary =
          static_cast<double>(graph::count_boundary_half_edges(g, plan)) /
          static_cast<double>(g.num_half_edges());
      const PairTiming t = time_shard_pair(g, mapped.view(), plan, &mapped, sources,
                                           steps, rounds, prefix, "s16-mapped");
      rows.push_back({spec.name, class_name(spec.paper_mixing_class), "s16-mapped", 16,
                      true, n, g.num_edges(), boundary, t.dense_min, t.shard_min,
                      t.ratio,
                      static_cast<double>(g.num_half_edges()) *
                          static_cast<double>(steps) / t.shard_min / 1e6});
    }

    // Cold pipeline rows: the same 16-shard plan through raw and
    // compressed containers, every round from an evicted page cache.
    // s16-cold is the baseline the ratio column compares against. The
    // cold sweeps use a narrow 8-lane block (the scale-smoke lane's
    // --sources 8): bigger-than-RAM sweeps are I/O-bound by construction,
    // and a full 32-lane block of compute at bench scale would bury the
    // I/O being measured — wide blocks are the warm rows' job above.
    const fs::path pack_adjc =
        fs::temp_directory_path() /
        ("micro_shard_" + util::slugify(spec.name) + "_adjc.smxg");
    graph::sharded::WriteOptions compress_options;
    compress_options.compress = true;
    graph::sharded::write_smxg_file(pack_adjc.string(), g, plan, compress_options);
    const std::vector<graph::NodeId> cold_sources = spread_sources(g, 8);
    const double boundary =
        static_cast<double>(graph::count_boundary_half_edges(g, plan)) /
        static_cast<double>(g.num_half_edges());
    double cold_raw_min = 0.0;
    for (const bool compressed : {false, true}) {
      const char* variant = compressed ? "s16-adjc-cold" : "s16-cold";
      const std::string cold_pack = compressed ? pack_adjc.string() : pack.string();
      const ColdTiming t = time_cold_variant(g, cold_pack, cold_sources, cold_steps,
                                             rounds, prefix + "/" + variant);
      if (!compressed) cold_raw_min = t.min_seconds;
      // dense_seconds carries the s16-cold baseline here, so the ratio
      // column reads as speedup over the raw cold path.
      rows.push_back({spec.name, class_name(spec.paper_mixing_class), variant,
                      16, true, n, g.num_edges(), boundary, cold_raw_min,
                      t.min_seconds, cold_raw_min / t.min_seconds,
                      static_cast<double>(g.num_half_edges()) *
                          static_cast<double>(cold_steps) / t.min_seconds / 1e6,
                      t.stall_seconds});
    }
    fs::remove(pack);
    fs::remove(pack_adjc);
  }

  // For warm rows "base s" is the paired dense sweep; for cold rows it is
  // the s16-cold raw sweep, so base/shard reads as the compression speedup.
  util::TextTable table;
  table.header({"dataset", "class", "variant", "boundary", "base s", "sharded s",
                "base/shard", "Medge/s", "stall s"});
  for (const Row& row : rows) {
    table.row({row.dataset, row.mixing_class, row.variant,
               util::fmt_fixed(row.boundary_fraction, 3),
               util::fmt_fixed(row.dense_seconds, 4),
               util::fmt_fixed(row.shard_seconds, 4), util::fmt_fixed(row.slowdown, 2),
               util::fmt_fixed(row.medge_per_s, 1),
               util::fmt_fixed(row.stall_seconds, 4)});
  }
  table.print(std::cout);

  const std::string out =
      cli.get("out", util::bench_results_dir().value_or(".") + "/micro_shard.csv");
  util::CsvWriter csv{out};
  csv.row({"dataset", "class", "variant", "shards", "mapped", "nodes", "edges",
           "boundary_fraction", "base_seconds", "shard_seconds", "ratio",
           "medge_per_s", "stall_seconds"});
  for (const Row& row : rows) {
    csv.row({row.dataset, row.mixing_class, row.variant, std::to_string(row.shards),
             row.mapped ? "yes" : "no", std::to_string(row.nodes),
             std::to_string(row.edges), util::fmt_fixed(row.boundary_fraction, 4),
             util::fmt_sci(row.dense_seconds, 6), util::fmt_sci(row.shard_seconds, 6),
             util::fmt_fixed(row.slowdown, 3), util::fmt_fixed(row.medge_per_s, 2),
             util::fmt_sci(row.stall_seconds, 4)});
  }
  if (csv.ok()) std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}
