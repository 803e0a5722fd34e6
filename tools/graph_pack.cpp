// graph_pack — converts an edge list (or a generated Table-1 stand-in)
// into the `.smxg` packed CSR container.
//
//   graph_pack --edges g.txt --out g.smxg [--reorder none|rcm]
//   graph_pack --dataset "Synthetic 1M" --nodes 1000000 --out g.smxg
//   graph_pack --verify g.smxg
//
// Mirrors the preprocessing of `socmix measure`: load/build, extract the
// largest connected component, optionally relabel it in reverse
// Cuthill-McKee order (--reorder rcm), then write the CSR. The ordering is
// the stored graph's: every measurement of the pack computes under it.
// `socmix measure --pack g.smxg` loads the result with no text parse. The
// adjacency is always the delta + stream-vbyte ADJC section (format
// version 2, about a third of the raw u32 array's bytes on a social graph;
// see sharded/adjc.hpp), decoded once when the pack is opened. The
// retired --sharded and --compress are refused by name.
//
// The --edges path converts text to CSR in two streaming passes over the
// file (graph::load_edge_list_file_two_pass: count degrees, then fill
// rows) instead of materializing an edge list, so peak memory is the CSR
// itself plus the id table — the packer runs under the same address-space
// cap the scale-smoke CI lane measures under.
//
// --verify loads an existing container (full CRC + structural validation)
// and reports its geometry plus every section's stored CRC-32; exit 1 on
// any defect. An unknown flag or value is refused by name (exit 1), and
// so are conflicting ones: two inputs, --nodes without --dataset, or a
// write flag with --verify.
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

using namespace socmix;

namespace {

int usage() {
  std::fputs(
      "usage: graph_pack --edges FILE | --dataset NAME [--nodes N] [--seed N]\n"
      "                  --out FILE.smxg\n"
      "                  [--reorder none|rcm]     pack-time vertex ordering (default none)\n"
      "       graph_pack --verify FILE.smxg      validate + report an existing pack\n",
      stderr);
  return 2;
}

int cmd_verify(const std::string& path) {
  const graph::sharded::MappedGraph mapped{path};
  const graph::Graph& g = mapped.view();
  std::printf("%s: OK\n", path.c_str());
  std::printf("  nodes %s, edges %s\n", util::with_commas(g.num_nodes()).c_str(),
              util::with_commas(static_cast<std::int64_t>(g.num_edges())).c_str());
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

/// Every flag graph_pack reads; anything else is refused by name.
constexpr std::string_view kFlags[] = {"edges", "dataset", "nodes",  "seed",
                                       "out",   "reorder", "verify"};
/// The flags of a pack write, none of which --verify reads.
constexpr const char* kWriteFlags[] = {"edges", "dataset", "nodes", "seed", "out", "reorder"};

int run(const util::Cli& cli) {
  if (cli.has("sharded")) {
    throw std::invalid_argument{
        "--sharded: retired; a pack is read into one resident CSR, so no shard "
        "plan is used"};
  }
  if (cli.has("compress")) {
    throw std::invalid_argument{
        "--compress: retired; every pack's adjacency is compressed (ADJC)"};
  }
  cli.refuse_unknown(kFlags);
  for (const char* flag : kWriteFlags) {
    cli.refuse_together("verify", flag, "--verify checks a pack and writes none");
  }
  cli.refuse_together("edges", "dataset", "give one input");
  cli.refuse_together("nodes", "edges", "--nodes sizes a --dataset build only");
  if (cli.has("verify")) return cmd_verify(cli.get("verify", ""));

  const std::string out = cli.get("out", "");
  if (out.empty()) return usage();
  // Every flag is checked before the input is loaded.
  const std::string reorder = cli.get("reorder", "none");
  if (reorder != "none" && reorder != "rcm") {
    throw std::invalid_argument{"--reorder=" + reorder + ": expected none or rcm"};
  }

  graph::Graph raw;
  std::string name;
  if (cli.has("edges")) {
    name = cli.get("edges", "");
    raw = graph::load_edge_list_file_two_pass(name);
  } else if (cli.has("dataset")) {
    name = cli.get("dataset", "");
    const auto spec = gen::find_dataset(name);
    if (!spec) throw std::runtime_error{"unknown dataset '" + name + "'"};
    const auto nodes = static_cast<graph::NodeId>(
        cli.get_count("nodes", 0, std::numeric_limits<graph::NodeId>::max()));
    raw = gen::build_dataset(*spec, nodes,
                             static_cast<std::uint64_t>(cli.get_i64("seed", 42)));
  } else {
    return usage();
  }

  // Same preprocessing as the measurement: LCC first (the container
  // always holds a connected graph), then the optional kernel ordering —
  // baked in at pack time so the mapped CSR is already gather-friendly.
  graph::Graph packed = graph::largest_component(std::move(raw)).graph;
  raw = graph::Graph{};  // drop the raw CSR (if it was split) before the reorder copy
  if (reorder == "rcm") {
    packed = graph::apply_permutation(packed, graph::rcm_permutation(packed));
  }

  graph::sharded::write_smxg_file(out, packed);
  std::fprintf(stderr, "packed %s -> %s: %s nodes, %s edges\n", name.c_str(),
               out.c_str(), util::with_commas(packed.num_nodes()).c_str(),
               util::with_commas(static_cast<std::int64_t>(packed.num_edges())).c_str());
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
