// Graph serialization: SNAP-style edge-list text. (The binary container is
// .smxg; see graph/sharded/format.hpp.)
//
// The paper's datasets circulate as whitespace-separated "u v" edge lists
// (SNAP / Mislove releases); load_edge_list() accepts exactly that format,
// including '#' and '%' comment lines and arbitrary (sparse) vertex ids,
// which are densified to [0, n).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace socmix::graph {

/// Result of parsing a text edge list: the clean graph plus parse stats.
struct LoadResult {
  Graph graph;
  std::size_t lines_read = 0;
  std::size_t edges_parsed = 0;
  std::size_t self_loops_dropped = 0;
  std::size_t duplicates_dropped = 0;
  /// Malformed lines skipped (lenient mode only; strict mode throws on
  /// the first one). Mirrored into the graph.io.malformed_lines counter.
  std::size_t malformed_lines = 0;
};

/// Parse-tolerance knobs for text edge lists.
struct EdgeListOptions {
  /// Lenient mode skips (and counts) malformed lines instead of throwing —
  /// graceful degradation for crawl dumps with stray garbage. A file that
  /// yields zero edges still throws: an all-garbage input is an error, not
  /// an empty graph.
  bool lenient = false;
  /// Lenient-mode cap: abort (throw) when more than this many lines are
  /// malformed — past that the file is the wrong format, not a dirty one.
  std::size_t max_malformed = 1000;
};

/// Parses a whitespace-separated edge list ("u v" per line, '#'/'%'
/// comments). Vertex ids may be arbitrary non-negative integers; they are
/// remapped to a dense range in first-appearance order. Directed inputs are
/// symmetrized (paper §4 preprocessing). Throws std::runtime_error on
/// malformed lines (strict mode) or when lenient tolerances are exceeded.
[[nodiscard]] LoadResult load_edge_list(std::istream& in,
                                        const EdgeListOptions& options = {});

/// Convenience wrapper opening the given path. Contains the `graph.load`
/// fault-injection site.
[[nodiscard]] LoadResult load_edge_list_file(const std::string& path,
                                             const EdgeListOptions& options = {});

/// Writes one "u v" line per undirected edge (u < v), suitable for
/// round-tripping through load_edge_list().
void save_edge_list(const Graph& g, std::ostream& out);

}  // namespace socmix::graph
