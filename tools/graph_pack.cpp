// graph_pack — converts an edge list (or a generated Table-1 stand-in)
// into the `.smxg` memory-mappable sharded CSR container.
//
//   graph_pack --edges g.txt --out g.smxg [--sharded auto|off|N] [--compress]
//   graph_pack --dataset "Synthetic 1M" --nodes 1000000 --out g.smxg
//   graph_pack --verify g.smxg
//
// Mirrors the preprocessing of `socmix measure`: load/build, extract the
// largest connected component, optionally relabel (--reorder), then write
// the CSR with a pack-time shard plan resolved by --sharded against the
// CSR byte size. `socmix measure --pack g.smxg` maps the result with zero
// parse cost; the sharded engines stream it window-at-a-time. --compress
// emits the adjacency as the delta + stream-vbyte ADJC section (format
// version 2, roughly half the bytes per edge; see sharded/adjc.hpp), which
// the measurement decodes shard-wise through linalg::ShardPipeline.
//
// The --edges path converts text to CSR in two streaming passes over the
// file (count degrees, then fill rows) instead of materializing an edge
// list, so peak memory is the CSR itself plus the id remap — the packer
// runs under the same address-space cap the scale-smoke CI lane measures
// under.
//
// --verify maps an existing container (full CRC + structural validation)
// and reports its geometry plus every section's stored CRC-32; exit 1 on
// any defect.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/experiment.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

using namespace socmix;

namespace {

int usage() {
  std::fputs(
      "usage: graph_pack --edges FILE | --dataset NAME [--nodes N] [--seed N]\n"
      "                  --out FILE.smxg\n"
      "                  [--sharded auto|off|N]   pack-time shard plan (default auto)\n"
      "                  [--reorder none|degree|rcm|bfs]\n"
      "                  [--compress]             delta+vbyte ADJC adjacency (v2)\n"
      "       graph_pack --verify FILE.smxg      validate + report an existing pack\n",
      stderr);
  return 2;
}

int cmd_verify(const std::string& path) {
  const graph::sharded::MappedGraph mapped{path};
  const graph::Graph& g = mapped.view();
  std::printf("%s: OK\n", path.c_str());
  std::printf("  nodes %s, edges %s, shards %u%s%s\n",
              util::with_commas(g.num_nodes()).c_str(),
              util::with_commas(static_cast<std::int64_t>(g.num_edges())).c_str(),
              mapped.pack_plan().num_shards(),
              mapped.compressed() ? ", compressed" : "",
              mapped.is_mapped() ? "" : " (heap fallback)");
  std::printf("  fingerprint %016llx\n",
              static_cast<unsigned long long>(mapped.fingerprint()));
  for (const auto& s : mapped.sections()) {
    const char fourcc[5] = {static_cast<char>(s.id & 0xff),
                            static_cast<char>((s.id >> 8) & 0xff),
                            static_cast<char>((s.id >> 16) & 0xff),
                            static_cast<char>((s.id >> 24) & 0xff), '\0'};
    std::printf("  section %s: offset %llu, %s bytes, crc32 %08x\n", fourcc,
                static_cast<unsigned long long>(s.offset),
                util::with_commas(static_cast<std::int64_t>(s.bytes)).c_str(),
                s.crc);
  }
  return 0;
}

/// Streaming text -> CSR conversion: two passes over the file with one
/// reused line buffer, no materialized edge list. Produces the exact graph
/// load_edge_list_file would (same first-appearance id densification, self
/// loops dropped, duplicates deduped, rows sorted) at a fraction of the
/// peak memory — the duplicate-inflated CSR plus the id remap.
graph::Graph load_edges_streaming(const std::string& path) {
  std::unordered_map<std::uint64_t, graph::NodeId> remap;
  std::vector<graph::EdgeIndex> degree;
  const auto densify = [&](std::uint64_t raw) {
    const auto [it, inserted] =
        remap.try_emplace(raw, static_cast<graph::NodeId>(remap.size()));
    if (inserted) degree.push_back(0);
    return it->second;
  };

  // Strict parse, same acceptance as load_edge_list: '#'/'%' comments,
  // whitespace-separated non-negative integer pairs. `emit` is invoked
  // once per parsed edge (self loops included — they still claim dense
  // ids, matching load_edge_list's first-appearance order exactly); both
  // passes share the parse so they cannot disagree on which lines count.
  const auto parse = [&](auto&& emit) {
    std::ifstream in{path};
    if (!in) throw std::runtime_error{"graph_pack: cannot open " + path};
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::string_view trimmed = util::trim(line);
      if (trimmed.empty() || trimmed.front() == '#' || trimmed.front() == '%') continue;
      const auto fields = util::split_ws(trimmed);
      const auto u = fields.size() >= 2 ? util::parse_i64(fields[0]) : std::nullopt;
      const auto v = fields.size() >= 2 ? util::parse_i64(fields[1]) : std::nullopt;
      if (!u || !v || *u < 0 || *v < 0) {
        throw std::runtime_error{"graph_pack: malformed line " +
                                 std::to_string(line_no) + " in " + path};
      }
      emit(static_cast<std::uint64_t>(*u), static_cast<std::uint64_t>(*v));
    }
  };

  // Pass 1: id remap + duplicate-inflated degrees (each text edge counts
  // both directions; dedup happens after the rows are sorted).
  parse([&](std::uint64_t u, std::uint64_t v) {
    const graph::NodeId du = densify(u);
    const graph::NodeId dv = densify(v);
    if (du == dv) return;  // self loop: id claimed, edge dropped
    ++degree[du];
    ++degree[dv];
  });
  const auto n = static_cast<graph::NodeId>(remap.size());
  std::vector<graph::EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (graph::NodeId i = 0; i < n; ++i) offsets[i + 1] = offsets[i] + degree[i];
  degree.clear();
  degree.shrink_to_fit();

  // Pass 2: fill rows through per-row cursors. Ids resolve through the
  // now-complete remap, so pass order no longer matters.
  std::vector<graph::NodeId> neighbors(offsets.back());
  std::vector<graph::EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  parse([&](std::uint64_t u, std::uint64_t v) {
    const graph::NodeId du = remap.at(u);
    const graph::NodeId dv = remap.at(v);
    if (du == dv) return;
    neighbors[cursor[du]++] = dv;
    neighbors[cursor[dv]++] = du;
  });
  remap.clear();
  cursor.clear();
  cursor.shrink_to_fit();

  // Sort each row and compact away duplicate edges in place, rebuilding
  // the offsets as the write cursor advances.
  graph::EdgeIndex write = 0;
  graph::EdgeIndex row_begin = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto lo = static_cast<std::ptrdiff_t>(row_begin);
    const auto hi = static_cast<std::ptrdiff_t>(offsets[v + 1]);
    row_begin = offsets[v + 1];
    std::sort(neighbors.begin() + lo, neighbors.begin() + hi);
    const auto last = std::unique(neighbors.begin() + lo, neighbors.begin() + hi);
    const auto count = static_cast<graph::EdgeIndex>(last - (neighbors.begin() + lo));
    std::copy(neighbors.begin() + lo, last,
              neighbors.begin() + static_cast<std::ptrdiff_t>(write));
    offsets[v] = write;
    write += count;
  }
  // offsets[0..n-1] now hold the compacted row starts (row 0 starts at 0);
  // cap with the final write cursor.
  offsets[n] = write;
  neighbors.resize(write);
  neighbors.shrink_to_fit();
  return graph::Graph::from_csr(std::move(offsets), std::move(neighbors));
}

int run(const util::Cli& cli) {
  if (cli.has("verify")) return cmd_verify(cli.get("verify", ""));

  const std::string out = cli.get("out", "");
  if (out.empty()) return usage();

  graph::Graph raw;
  std::string name;
  if (cli.has("edges")) {
    name = cli.get("edges", "");
    raw = load_edges_streaming(name);
  } else if (cli.has("dataset")) {
    name = cli.get("dataset", "");
    const auto spec = gen::find_dataset(name);
    if (!spec) throw std::runtime_error{"unknown dataset '" + name + "'"};
    const auto nodes = static_cast<graph::NodeId>(cli.get_i64("nodes", 0));
    raw = gen::build_dataset(*spec, nodes,
                             static_cast<std::uint64_t>(cli.get_i64("seed", 42)));
  } else {
    return usage();
  }

  // Same preprocessing as the measurement: LCC first (the container
  // always holds a connected graph), then the optional kernel ordering —
  // baked in at pack time so the mapped CSR is already gather-friendly
  // and measure runs it with --reorder none.
  graph::Graph lcc = graph::largest_component(raw).graph;
  raw = graph::Graph{};  // drop the raw CSR before the reorder copy
  const markov::EngineOptions engine = core::engine_options_from_cli(cli);
  const graph::ReorderedGraph reordered = graph::reorder_graph(lcc, engine.reorder);
  const graph::Graph& packed = reordered.active(lcc);

  graph::sharded::WriteOptions write_options;
  write_options.compress = cli.get_flag("compress");
  // Compressed runs keep a third adjacency copy in flight (the decoded
  // scratch window); fold that into the pack-time auto plan the same way
  // the measurement does at load time.
  const std::uint32_t shards = graph::resolve_shard_count(
      engine.sharded, packed.memory_bytes(), packed.num_nodes(),
      write_options.compress ? 3u : 2u);
  const graph::ShardPlan plan =
      shards > 1 ? graph::ShardPlan::balanced(packed.offsets(), shards)
                 : graph::ShardPlan::single(packed.num_nodes());
  graph::sharded::write_smxg_file(out, packed, plan, write_options);
  std::fprintf(stderr, "packed %s -> %s: %s nodes, %s edges, %u shard%s%s\n",
               name.c_str(), out.c_str(),
               util::with_commas(packed.num_nodes()).c_str(),
               util::with_commas(static_cast<std::int64_t>(packed.num_edges())).c_str(),
               plan.num_shards(), plan.num_shards() == 1 ? "" : "s",
               write_options.compress ? ", compressed" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  try {
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graph_pack: %s\n", e.what());
    return 1;
  }
}
