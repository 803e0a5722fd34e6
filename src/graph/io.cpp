#include "graph/io.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <new>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>

#include <sys/mman.h>

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

/// Splits a stream into lines on '\n', exactly as std::getline does, but
/// reads it in blocks: each next() hands out the run of whole lines the
/// buffer holds, each ending in '\n'. The unterminated tail of a block
/// carries over to the next one, a line longer than the buffer grows it,
/// and a final line without a newline is given one, so it still counts.
/// The buffer is mapped outside the heap: a heap block freed between
/// repeated loads stayed resident and raised their peak RSS.
class LineBlocks {
 public:
  explicit LineBlocks(std::istream& in) : in_{in} {}

  /// The next run of whole lines, or an empty view at the end of the input.
  [[nodiscard]] std::string_view next() {
    const std::size_t carry = filled_ - handed_;
    std::memmove(buffer_.get(), buffer_.get() + handed_, carry);
    filled_ = carry;
    handed_ = 0;
    while (!at_end_) {
      if (filled_ == capacity_) grow();
      const std::size_t room = capacity_ - filled_;
      in_.read(buffer_.get() + filled_, static_cast<std::streamsize>(room));
      const auto got = static_cast<std::size_t>(in_.gcount());
      // read() stops short only at the end of the input (or on an error).
      at_end_ = got < room;
      const void* const last = ::memrchr(buffer_.get() + filled_, '\n', got);
      filled_ += got;
      if (last != nullptr) {
        handed_ =
            static_cast<std::size_t>(static_cast<const char*>(last) - buffer_.get()) + 1;
        return {buffer_.get(), handed_};
      }
    }
    if (filled_ == 0) return {};
    buffer_[filled_++] = '\n';  // the byte reserved past capacity_
    handed_ = filled_;
    return {buffer_.get(), handed_};
  }

 private:
  struct Unmap {
    std::size_t bytes;
    void operator()(char* p) const noexcept { ::munmap(p, bytes); }
  };
  using Buffer = std::unique_ptr<char[], Unmap>;

  [[nodiscard]] static Buffer map(std::size_t bytes) {
    void* const p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc{};
    return Buffer{static_cast<char*>(p), Unmap{bytes}};
  }

  void grow() {
    Buffer bigger = map(2 * capacity_ + 1);
    std::memcpy(bigger.get(), buffer_.get(), filled_);
    buffer_ = std::move(bigger);
    capacity_ *= 2;
  }

  std::istream& in_;
  std::size_t capacity_ = kEdgeListBlockBytes;
  Buffer buffer_ = map(capacity_ + 1);
  std::size_t filled_ = 0;  // bytes held
  std::size_t handed_ = 0;  // bytes handed out by the last next()
  bool at_end_ = false;
};

/// The fast path in front of parse_edge_line: parses the line at `p` when
/// it is exactly "digits[ \t]+digits[ \t\r]*\n" with at most 18 digits per
/// id (so neither can overflow an int64) and returns the '\n' it ends at.
/// Any other line returns nullptr, for parse_edge_line to read. A '\n' must
/// end the line: every loop stops at it.
[[nodiscard]] const char* parse_plain_edge(const char* p, std::uint64_t& u,
                                           std::uint64_t& v) noexcept {
  const auto id = [&p](std::uint64_t& out) {
    const char* const first = p;
    std::uint64_t value = 0;
    while (static_cast<unsigned char>(*p - '0') < 10) value = value * 10 + (*p++ - '0');
    out = value;
    return p != first && p - first <= 18;
  };
  if (!id(u) || (*p != ' ' && *p != '\t')) return nullptr;
  while (*p == ' ' || *p == '\t') ++p;
  if (!id(v)) return nullptr;
  while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  return *p == '\n' ? p : nullptr;
}

/// Reads `in` line by line through one LineBlocks and calls
/// visit(kind, u, v, line) for each line in order, with `line` the line
/// without its '\n' and what parse_edge_line says of it (u and v set on
/// kEdge). Plain digit lines are parsed by parse_plain_edge.
template <class Visit>
void for_each_line(std::istream& in, Visit&& visit) {
  LineBlocks blocks{in};
  for (std::string_view run = blocks.next(); !run.empty(); run = blocks.next()) {
    const char* p = run.data();
    const char* const end = p + run.size();
    while (p != end) {
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      EdgeLine kind = EdgeLine::kEdge;
      const char* eol = parse_plain_edge(p, u, v);
      if (eol == nullptr) {
        eol = static_cast<const char*>(
            std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
        kind = parse_edge_line({p, static_cast<std::size_t>(eol - p)}, u, v);
      }
      visit(kind, u, v, std::string_view{p, static_cast<std::size_t>(eol - p)});
      p = eol + 1;
    }
  }
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
  SOCMIX_TRACE_SPAN("graph.load");
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

  for_each_line(in, [&](EdgeLine kind, std::uint64_t u, std::uint64_t v,
                        std::string_view line) {
    ++result.lines_read;
    switch (kind) {
      case EdgeLine::kSkip:
        return;
      case EdgeLine::kTooFewFields:
        reject("load_edge_list: malformed line " + std::to_string(result.lines_read) +
               ": '" + std::string{line} + "'");
        return;
      case EdgeLine::kBadId:
        reject("load_edge_list: non-integer vertex id at line " +
               std::to_string(result.lines_read));
        return;
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
  });
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
  resilience::fault_point("graph.load");
  SOCMIX_TRACE_SPAN("graph.load");
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
    std::size_t line_no = 0;
    for_each_line(in, [&](EdgeLine kind, std::uint64_t u, std::uint64_t v,
                          std::string_view) {
      ++line_no;
      if (kind == EdgeLine::kSkip) return;
      if (kind != EdgeLine::kEdge) {
        throw std::runtime_error{"load_edge_list_file_two_pass: malformed line " +
                                 std::to_string(line_no) + " in " + path};
      }
      emit(u, v);
    });
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
