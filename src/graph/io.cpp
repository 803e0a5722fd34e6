#include "graph/io.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "obs/obs.hpp"
#include "resilience/fault.hpp"

namespace socmix::graph {

namespace {

[[nodiscard]] bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v';
}

/// Parses the field starting at `field` (it ends at whitespace or `end`)
/// as a whole non-negative int64.
[[nodiscard]] bool parse_id(const char* field, const char* end,
                            std::uint64_t& out) noexcept {
  std::int64_t value = 0;
  const auto [stop, ec] = std::from_chars(field, end, value);
  if (ec != std::errc{} || value < 0 || (stop != end && !is_space(*stop))) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

}  // namespace

EdgeLine parse_edge_line(std::string_view line, std::uint64_t& u,
                         std::uint64_t& v) noexcept {
  const char* p = line.data();
  const char* const end = p + line.size();
  const auto skip_space = [&p, end] {
    while (p != end && is_space(*p)) ++p;
  };
  skip_space();
  if (p == end || *p == '#' || *p == '%') return EdgeLine::kSkip;
  const char* const first = p;
  while (p != end && !is_space(*p)) ++p;
  skip_space();
  if (p == end) return EdgeLine::kTooFewFields;
  return parse_id(first, end, u) && parse_id(p, end, v) ? EdgeLine::kEdge
                                                         : EdgeLine::kBadId;
}

NodeId IdDensifier::operator()(std::uint64_t raw) {
  if (2 * (static_cast<std::size_t>(count_) + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(raw);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.raw == raw) return slot.id;
    if (slot.raw == kFree) {
      slot = {raw, count_};
      return count_++;
    }
  }
}

void IdDensifier::grow() {
  const std::vector<Slot> old = std::move(slots_);
  const std::size_t capacity = std::max<std::size_t>(1024, 2 * old.size());
  slots_.assign(capacity, Slot{kFree, 0});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.raw == kFree) continue;
    std::size_t i = home(slot.raw);
    while (slots_[i].raw != kFree) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

LoadResult load_edge_list(std::istream& in, const EdgeListOptions& options) {
  LoadResult result;
  EdgeList edges;
  IdDensifier densify;

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
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  while (std::getline(in, line)) {
    ++result.lines_read;
    switch (parse_edge_line(line, u, v)) {
      case EdgeLine::kSkip:
        continue;
      case EdgeLine::kTooFewFields:
        reject("load_edge_list: malformed line " + std::to_string(result.lines_read) +
               ": '" + line + "'");
        continue;
      case EdgeLine::kBadId:
        reject("load_edge_list: non-integer vertex id at line " +
               std::to_string(result.lines_read));
        continue;
      case EdgeLine::kEdge:
        break;
    }
    ++result.edges_parsed;
    // Sequence the two densify calls: function-argument evaluation order
    // is unspecified, so `add(densify(u), densify(v))` would make the
    // "first-appearance" labeling a compiler artifact (gcc evaluated the
    // arguments right to left). load_edge_list_file_two_pass assigns u
    // before v too, and the pack parity checks compare the two bytewise.
    const NodeId du = densify(u);
    const NodeId dv = densify(v);
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

Graph load_edge_list_file_two_pass(const std::string& path) {
  IdDensifier densify;
  std::vector<EdgeIndex> degree;

  // Strict parse, same acceptance as load_edge_list. `emit` is invoked
  // once per parsed edge (self loops included — they still claim dense
  // ids, matching load_edge_list's first-appearance order exactly); both
  // passes share the parse so they cannot disagree on which lines count.
  const auto parse = [&path](auto&& emit) {
    std::ifstream in{path};
    if (!in) {
      throw std::runtime_error{"load_edge_list_file_two_pass: cannot open " + path};
    }
    std::string line;
    std::size_t line_no = 0;
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const EdgeLine kind = parse_edge_line(line, u, v);
      if (kind == EdgeLine::kSkip) continue;
      if (kind != EdgeLine::kEdge) {
        throw std::runtime_error{"load_edge_list_file_two_pass: malformed line " +
                                 std::to_string(line_no) + " in " + path};
      }
      emit(u, v);
    }
  };

  // Pass 1: id labels + duplicate-inflated degrees (each text edge counts
  // both directions; dedup happens after the rows are sorted).
  parse([&](std::uint64_t u, std::uint64_t v) {
    const NodeId du = densify(u);
    const NodeId dv = densify(v);
    degree.resize(densify.size());
    if (du == dv) return;  // self loop: id claimed, edge dropped
    ++degree[du];
    ++degree[dv];
  });
  const NodeId n = densify.size();
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId i = 0; i < n; ++i) offsets[i + 1] = offsets[i] + degree[i];
  degree.clear();
  degree.shrink_to_fit();

  // Pass 2: fill rows through per-row cursors. Every id is labeled by
  // now, so densify only looks them up.
  std::vector<NodeId> neighbors(offsets.back());
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  parse([&](std::uint64_t u, std::uint64_t v) {
    const NodeId du = densify(u);
    const NodeId dv = densify(v);
    if (du == dv) return;
    neighbors[cursor[du]++] = dv;
    neighbors[cursor[dv]++] = du;
  });
  densify = IdDensifier{};
  cursor = {};
  return Graph::from_unsorted_csr(std::move(offsets), std::move(neighbors));
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
