#include "graph/io.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/string_util.hpp"

namespace socmix::graph {

LoadResult load_edge_list(std::istream& in, const EdgeListOptions& options) {
  LoadResult result;
  EdgeList edges;
  std::unordered_map<std::uint64_t, NodeId> remap;
  const auto densify = [&](std::uint64_t raw) -> NodeId {
    const auto [it, inserted] = remap.try_emplace(raw, static_cast<NodeId>(remap.size()));
    return it->second;
  };

  const auto reject = [&](const std::string& what) -> bool {
    // Strict: fail on the first bad line. Lenient: count and skip, up to
    // the tolerance — a file that is mostly garbage is the wrong format.
    if (!options.lenient) {
      SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
      throw std::runtime_error{what};
    }
    ++result.malformed_lines;
    if (result.malformed_lines > options.max_malformed) {
      SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
      throw std::runtime_error{"load_edge_list: more than " +
                               std::to_string(options.max_malformed) +
                               " malformed lines; last: " + what};
    }
    return false;
  };

  std::string line;
  while (std::getline(in, line)) {
    ++result.lines_read;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#' || trimmed.front() == '%') continue;
    const auto fields = util::split_ws(trimmed);
    if (fields.size() < 2) {
      reject("load_edge_list: malformed line " + std::to_string(result.lines_read) +
             ": '" + line + "'");
      continue;
    }
    const auto u = util::parse_i64(fields[0]);
    const auto v = util::parse_i64(fields[1]);
    if (!u || !v || *u < 0 || *v < 0) {
      reject("load_edge_list: non-integer vertex id at line " +
             std::to_string(result.lines_read));
      continue;
    }
    ++result.edges_parsed;
    // Sequence the two densify calls: function-argument evaluation order
    // is unspecified, so `add(densify(u), densify(v))` would make the
    // "first-appearance" labeling a compiler artifact (gcc evaluated the
    // arguments right to left). Every other producer of this labeling —
    // graph_pack's streaming loader in particular — assigns u before v,
    // and the out-of-core TVD parity checks compare the two bytewise.
    const NodeId du = densify(static_cast<std::uint64_t>(*u));
    const NodeId dv = densify(static_cast<std::uint64_t>(*v));
    edges.add(du, dv);
  }
  if (result.malformed_lines > 0) {
    SOCMIX_COUNTER_ADD("graph.io.malformed_lines", result.malformed_lines);
  }
  if (options.lenient && result.edges_parsed == 0 && result.malformed_lines > 0) {
    SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
    throw std::runtime_error{"load_edge_list: no parsable edges (" +
                             std::to_string(result.malformed_lines) + " malformed lines)"};
  }

  const std::size_t raw_edges = edges.size();
  result.self_loops_dropped = edges.count_self_loops();
  result.graph = Graph::from_edges(std::move(edges));
  result.duplicates_dropped =
      raw_edges - result.self_loops_dropped - static_cast<std::size_t>(result.graph.num_edges());
  return result;
}

LoadResult load_edge_list_file(const std::string& path, const EdgeListOptions& options) {
  resilience::fault_point("graph.load");
  std::ifstream in{path};
  if (!in) {
    SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
    throw std::runtime_error{"load_edge_list_file: cannot open " + path};
  }
  return load_edge_list(in, options);
}

void save_edge_list(const Graph& g, std::ostream& out) {
  const NodeId n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

}  // namespace socmix::graph
