// Graph serialization: SNAP-style edge-list text. (The binary container is
// .smxg; see graph/sharded/format.hpp.)
//
// The paper's datasets circulate as whitespace-separated "u v" edge lists
// (SNAP / Mislove releases); load_edge_list() accepts exactly that format,
// including '#' and '%' comment lines and arbitrary (sparse) vertex ids,
// which are densified to [0, n).
//
// Both loaders read their input in blocks of kEdgeListBlockBytes and split
// it into lines on '\n' as std::getline would, without a string per line
// or a whole-file buffer. A line of two plain ids ("digits[ \t]+digits",
// at most 18 digits each, then only [ \t\r]) is parsed in place; every
// other line goes to parse_edge_line, which defines what a line means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

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

/// The block the text loaders read through, reused for the whole input. A
/// line longer than it grows it. (A 1 MiB block loaded no faster.)
inline constexpr std::size_t kEdgeListBlockBytes = std::size_t{256} << 10;

/// What one line of a text edge list holds (see parse_edge_line).
enum class EdgeLine : std::uint8_t {
  kSkip,          ///< blank, or a '#' / '%' comment
  kEdge,          ///< two non-negative integer ids
  kTooFewFields,  ///< fewer than two whitespace-separated fields
  kBadId,         ///< a first or second field that is not a non-negative integer
};

/// Parses one line of an edge list in place: ASCII whitespace separates
/// fields, fields past the second are ignored, and each id must be a whole
/// field that parses as a non-negative int64. On kEdge, `u` and `v` hold
/// the ids. The one parser of both edge-list loaders.
[[nodiscard]] EdgeLine parse_edge_line(std::string_view line, std::uint64_t& u,
                                       std::uint64_t& v) noexcept;

/// Densifies raw vertex ids to [0, n) in first-appearance order: the first
/// id seen becomes 0, the next new one 1, and so on. An open-addressing
/// table of (raw id, dense id) slots, kept at most half full. The one
/// labeling of both edge-list loaders.
class IdDensifier {
 public:
  /// The dense id of `raw` (< 2^63), assigning the next one on its first
  /// appearance.
  NodeId operator()(std::uint64_t raw);

  /// Distinct ids seen so far.
  [[nodiscard]] NodeId size() const noexcept { return count_; }

 private:
  struct Slot {
    std::uint64_t raw;
    NodeId id;
  };
  /// Marks a free slot: no parsed id (a non-negative int64) equals it.
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};

  [[nodiscard]] std::size_t home(std::uint64_t raw) const noexcept {
    return static_cast<std::size_t>((raw * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void grow();

  std::vector<Slot> slots_;
  unsigned shift_ = 64;
  NodeId count_ = 0;
};

/// Parses a whitespace-separated edge list ("u v" per line, '#'/'%'
/// comments). Vertex ids may be arbitrary non-negative integers; they are
/// remapped to a dense range in first-appearance order. Directed inputs are
/// symmetrized (paper §4 preprocessing). Throws std::runtime_error on
/// malformed lines (strict mode) or when lenient tolerances are exceeded.
[[nodiscard]] LoadResult load_edge_list(std::istream& in,
                                        const EdgeListOptions& options = {});

/// Convenience wrapper opening the given path. Contains the `graph.load`
/// fault-injection site. Both loaders record a `graph.load` trace span.
[[nodiscard]] LoadResult load_edge_list_file(const std::string& path,
                                             const EdgeListOptions& options = {});

/// Strict two-pass conversion of an edge-list file to CSR: counts degrees,
/// then fills the rows, with no materialized edge list, so peak memory is
/// the duplicate-inflated CSR plus the id table. Returns the graph
/// load_edge_list_file(path).graph would (same labeling, self loops
/// dropped, duplicates merged, rows sorted); throws on the first
/// malformed line.
[[nodiscard]] Graph load_edge_list_file_two_pass(const std::string& path);

/// Writes one "u v" line per undirected edge (u < v), suitable for
/// round-tripping through load_edge_list().
void save_edge_list(const Graph& g, std::ostream& out);

}  // namespace socmix::graph
