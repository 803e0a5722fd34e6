// Differential mutation sweep of the text edge-list loaders. The loaders
// read their input in blocks and parse plain "u v" lines on a fast path;
// the reference below is the loop they replaced (std::getline per line,
// parse_edge_line on each). Every mutant of a seed corpus must load, strict
// and lenient, to the same CSR bytes, LoadResult fields and graph.io.*
// counter deltas as the reference, or throw the same text; the two-pass
// file loader must agree with the strict reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/io.hpp"
#include "obs/obs.hpp"

namespace socmix::graph {
namespace {

/// Everything a load can be told apart by.
struct Outcome {
  std::string error;  // the exception text; empty when the load returned
  std::vector<EdgeIndex> offsets;
  std::vector<NodeId> neighbors;
  std::size_t lines_read = 0;
  std::size_t edges_parsed = 0;
  std::size_t self_loops_dropped = 0;
  std::size_t duplicates_dropped = 0;
  std::size_t malformed_lines = 0;
  std::uint64_t load_failures_added = 0;      // graph.io.load_failures
  std::uint64_t malformed_counter_added = 0;  // graph.io.malformed_lines

  void set_graph(const Graph& g) {
    offsets.assign(g.offsets().begin(), g.offsets().end());
    neighbors.assign(g.raw_neighbors().begin(), g.raw_neighbors().end());
  }
  void set(const LoadResult& r) {
    set_graph(r.graph);
    lines_read = r.lines_read;
    edges_parsed = r.edges_parsed;
    self_loops_dropped = r.self_loops_dropped;
    duplicates_dropped = r.duplicates_dropped;
    malformed_lines = r.malformed_lines;
  }
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

std::string describe(const Outcome& o) {
  if (!o.error.empty()) return "threw '" + o.error + "'";
  return "n=" + std::to_string(o.offsets.empty() ? 0 : o.offsets.size() - 1) +
         " half-edges=" + std::to_string(o.neighbors.size()) +
         " lines=" + std::to_string(o.lines_read) +
         " edges=" + std::to_string(o.edges_parsed) +
         " loops=" + std::to_string(o.self_loops_dropped) +
         " dups=" + std::to_string(o.duplicates_dropped) +
         " malformed=" + std::to_string(o.malformed_lines) +
         " counters=" + std::to_string(o.load_failures_added) + "/" +
         std::to_string(o.malformed_counter_added);
}

/// The reference: load_edge_list as a std::getline loop, with its messages
/// and counter updates. `fail_line`, if given, receives the line of the
/// last malformed line.
Outcome reference_load(const std::string& text, const EdgeListOptions& options,
                       std::size_t* fail_line = nullptr) {
  Outcome out;
  LoadResult result;
  EdgeList edges;
  IdDensifier densify;
  const auto reject = [&](const std::string& what) {
    if (!options.lenient) {
      out.load_failures_added = 1;
      throw std::runtime_error{what};
    }
    ++result.malformed_lines;
    if (result.malformed_lines > options.max_malformed) {
      out.load_failures_added = 1;
      throw std::runtime_error{"load_edge_list: more than " +
                               std::to_string(options.max_malformed) +
                               " malformed lines; last: " + what};
    }
  };
  try {
    std::istringstream in{text};
    std::string line;
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    while (std::getline(in, line)) {
      ++result.lines_read;
      switch (parse_edge_line(line, u, v)) {
        case EdgeLine::kSkip:
          continue;
        case EdgeLine::kTooFewFields:
          if (fail_line != nullptr) *fail_line = result.lines_read;
          reject("load_edge_list: malformed line " + std::to_string(result.lines_read) +
                 ": '" + line + "'");
          continue;
        case EdgeLine::kBadId:
          if (fail_line != nullptr) *fail_line = result.lines_read;
          reject("load_edge_list: non-integer vertex id at line " +
                 std::to_string(result.lines_read));
          continue;
        case EdgeLine::kEdge:
          break;
      }
      ++result.edges_parsed;
      const NodeId du = densify(u);
      const NodeId dv = densify(v);
      edges.add(du, dv);
    }
    out.malformed_counter_added = result.malformed_lines;
    if (options.lenient && result.edges_parsed == 0 && result.malformed_lines > 0) {
      out.load_failures_added = 1;
      throw std::runtime_error{"load_edge_list: no parsable edges (" +
                               std::to_string(result.malformed_lines) +
                               " malformed lines)"};
    }
    const std::size_t raw_edges = edges.size();
    result.self_loops_dropped = edges.count_self_loops();
    result.graph = Graph::from_edges(std::move(edges));
    result.duplicates_dropped = raw_edges - result.self_loops_dropped -
                                static_cast<std::size_t>(result.graph.num_edges());
    const std::uint64_t failures = out.load_failures_added;
    const std::uint64_t malformed = out.malformed_counter_added;
    out.set(result);
    out.load_failures_added = failures;
    out.malformed_counter_added = malformed;
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

/// Runs `load` and records what it returned or threw, with the counter
/// deltas it caused.
Outcome observe(const std::function<LoadResult()>& load) {
  const std::uint64_t failures = counter("graph.io.load_failures");
  const std::uint64_t malformed = counter("graph.io.malformed_lines");
  Outcome out;
  try {
    out.set(load());
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  out.load_failures_added = counter("graph.io.load_failures") - failures;
  out.malformed_counter_added = counter("graph.io.malformed_lines") - malformed;
  return out;
}

class EdgeListFuzz : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Loads `text` with every loader and compares each with the reference;
  /// returns false (after reporting) on the first disagreement.
  bool agrees(const std::string& text, const std::string& what) {
    ++mutants_;
    EdgeListOptions lenient;
    lenient.lenient = true;
    lenient.max_malformed = 2;  // small seeds reach the cap too
    std::size_t strict_fail_line = 0;
    const Outcome strict_ref = reference_load(text, {}, &strict_fail_line);
    const Outcome lenient_ref = reference_load(text, lenient);
    const auto check = [&](const Outcome& got, const Outcome& want, const char* loader) {
      if (got == want) return true;
      ADD_FAILURE() << what << ": " << loader << " " << describe(got) << ", reference "
                    << describe(want);
      return false;
    };

    const auto from_stream = [&text](const EdgeListOptions& options) {
      return [&text, options] {
        std::istringstream in{text};
        return load_edge_list(in, options);
      };
    };
    if (!check(observe(from_stream({})), strict_ref, "load_edge_list strict")) {
      return false;
    }
    if (!check(observe(from_stream(lenient)), lenient_ref, "load_edge_list lenient")) {
      return false;
    }

    // The file loaders read through std::ifstream; a file is removed, not
    // truncated, before it is rewritten (rewriting a file in place can
    // cost a flush per mutant).
    std::remove(path_.c_str());
    {
      std::ofstream out{path_, std::ios::binary};
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    if (!check(observe([this] { return load_edge_list_file(path_); }), strict_ref,
               "load_edge_list_file strict")) {
      return false;
    }
    // The two-pass loader builds only the graph, and names the line a
    // strict load fails at.
    Outcome two_pass_want;
    if (strict_ref.error.empty()) {
      two_pass_want.offsets = strict_ref.offsets;
      two_pass_want.neighbors = strict_ref.neighbors;
    } else {
      two_pass_want.error = "load_edge_list_file_two_pass: malformed line " +
                            std::to_string(strict_fail_line) + " in " + path_;
    }
    Outcome two_pass;
    try {
      two_pass.set_graph(load_edge_list_file_two_pass(path_));
    } catch (const std::runtime_error& e) {
      two_pass.error = e.what();
    }
    return check(two_pass, two_pass_want, "load_edge_list_file_two_pass");
  }

  /// Every single-byte substitution from `bytes` at each of `positions`,
  /// every truncation at them, and '\n', ' ' and '#' inserted there.
  bool sweep(const std::string& seed, const std::string& name,
             const std::vector<std::size_t>& positions, const std::string& bytes) {
    for (const std::size_t i : positions) {
      const std::string at = name + " @" + std::to_string(i);
      if (i < seed.size()) {
        std::string subs = bytes;
        subs.push_back(static_cast<char>(~seed[i]));  // the inverted byte
        for (const char c : subs) {
          if (c == seed[i]) continue;
          std::string mutant = seed;
          mutant[i] = c;
          const auto byte = static_cast<unsigned char>(c);
          if (!agrees(mutant, at + " byte " + std::to_string(byte))) return false;
        }
      }
      if (!agrees(seed.substr(0, i), at + " truncated")) return false;
      for (const char c : {'\n', ' ', '#'}) {
        std::string mutant = seed;
        mutant.insert(i, 1, c);
        if (!agrees(mutant, at + " insert " + std::to_string(static_cast<int>(c)))) {
          return false;
        }
      }
    }
    return true;
  }

  // One file per test: ctest runs the tests as parallel processes.
  std::string path_ =
      testing::TempDir() + "/socmix_io_fuzz_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt";
  std::size_t mutants_ = 0;
};

/// Small seeds: each covers line shapes the fast path takes or must hand
/// to parse_edge_line.
std::vector<std::string> small_seeds() {
  using namespace std::string_literals;
  return {
      // SNAP header, tab-separated ids.
      "# Directed graph: Slashdot0902.txt\n# Nodes: 4 Edges: 4\n# FromNodeId\tToNodeId\n"
      "0\t1\n0\t2\n3\t0\n2\t3\n",
      // '%' comments, CRLF, blank lines, trailing blanks.
      "% sym unweighted\r\n1 2\r\n\r\n2 3 \r\n\n3 1\t\r\n",
      // A third column, runs of separators, leading whitespace.
      "1\t2\t0.5\n2 3 1700000000\n3\t\t1\n  4 1\n\t5 4\n",
      // No final newline.
      "10 20\n20 30\n30 10",
      // int64's edge: 2^63 - 1 is an id, 2^63 is not; 19 digits.
      "9223372036854775807 1\n1 2\n9223372036854775808 2\n1234567890123456789 5\n"
      "123456789012345678 5\n0000000000000000001 2\n",
      // Signs.
      "-1 2\n+1 2\n1 -0\n1 2\n",
      // NUL bytes inside and between lines.
      "1 2\n3\0 4\n4 5\n\0\n5 6\n4\t\0"s,
      // Other whitespace: form feed, vertical tab, CR between fields.
      "1\f2\n1\v2\n1\r2\n1 2\f\n2 3\v\n",
      // Self loops and duplicates in both directions.
      "1 1\n1 2\n2 1\n2 2\n1 2\n3 2\n",
      // Too few fields.
      "1 2\n7\n 8 \n2 3\n",
  };
}

TEST_F(EdgeListFuzz, SeedCorpusLoadsLikeTheGetlineReference) {
  for (const std::string& seed : small_seeds()) ASSERT_TRUE(agrees(seed, "seed"));
}

TEST_F(EdgeListFuzz, EveryByteMutationOfSmallSeedsLoadsLikeTheGetlineReference) {
  const std::string bytes{"07 \t\r\n#%-+x\f\v\0", 15};
  const auto seeds = small_seeds();
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    std::vector<std::size_t> positions(seeds[s].size() + 1);
    for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
    ASSERT_TRUE(sweep(seeds[s], "seed " + std::to_string(s), positions, bytes));
  }
  RecordProperty("mutants", std::to_string(mutants_));
  EXPECT_GT(mutants_, 5'000u);
}

TEST_F(EdgeListFuzz, LinesAcrossBlockBoundariesLoadLikeTheGetlineReference) {
  // Comment lines (cheap to parse) and then plain lines up to just short
  // of the first block boundary, one line straddling it, then two lines
  // longer than a block: a plain edge padded with separators (the fast
  // path's) and an id with a block's worth of leading zeros
  // (parse_edge_line's); the last line is unterminated.
  constexpr std::size_t kBlock = kEdgeListBlockBytes;
  std::string seed;
  while (seed.size() + 4096 < kBlock) seed += "# " + std::string(4000, 'c') + '\n';
  for (std::uint64_t i = 0; seed.size() + 10 < kBlock; ++i) {
    seed += std::to_string(i % 5000) + ' ' + std::to_string((i * 7919) % 5000) + '\n';
  }
  const std::size_t straddle = seed.size();
  seed += "123456 654321\n4242 1\n";
  const std::size_t long_edge = seed.size();
  seed += "17" + std::string(kBlock + 16, ' ') + "18\n";
  const std::size_t long_id = seed.size();
  seed += std::string(kBlock + 7, '0') + "19 17\n19 4242\n20 1";

  const std::string bytes{"7 \n#x\0", 6};
  std::vector<std::size_t> positions;
  for (const std::size_t mark :
       {straddle, kBlock, long_edge, long_id, long_id + kBlock + 7, seed.size()}) {
    for (std::size_t i = mark - 1; i <= mark + 1 && i <= seed.size(); ++i) {
      positions.push_back(i);
    }
  }
  ASSERT_TRUE(agrees(seed, "block seed"));
  ASSERT_TRUE(sweep(seed, "block seed", positions, bytes));
}

}  // namespace
}  // namespace socmix::graph
