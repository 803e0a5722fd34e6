// The .smxg container: round-trip fidelity, the decode of a compressed
// pack at open, and — critically — the loader's failure paths. Every
// malformed container must fail closed (std::runtime_error + a
// graph.io.smxg_rejected bump), never hand garbage to the kernels:
// truncation, payload bit-rot, a wrong-endian header, version skew, a file
// shorter than its header claims and every kind of damaged ADJC stream are
// each exercised by corrupting a valid pack in place.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <utility>

#include "gen/datasets.hpp"
#include "graph/graph.hpp"
#include "graph/sharded/adjc.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "obs/obs.hpp"
#include "util/checksum.hpp"
#include "../linalg/simd_tiers.hpp"

namespace socmix::graph::sharded {
namespace {

namespace fs = std::filesystem;

class SmxgTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::path{testing::TempDir()} /
             ("smxg_" +
              std::string{
                  ::testing::UnitTest::GetInstance()->current_test_info()->name()} +
              ".smxg"))
                .string();
    const auto spec = gen::find_dataset("Physics 1");
    graph_ = gen::build_dataset(*spec, 400, 23);
    write_smxg_file(path_, graph_);
  }
  void TearDown() override { fs::remove(path_); }

  [[nodiscard]] std::vector<char> slurp() const {
    std::ifstream in{path_, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  }
  void dump(const std::vector<char>& bytes) const {
    std::ofstream out{path_, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Re-stamps the header CRC after a deliberate header field edit, so the
  /// test reaches the *targeted* check instead of tripping the CRC first.
  static void restamp_header_crc(std::vector<char>& bytes) {
    const std::uint32_t crc =
        util::crc32(std::as_bytes(std::span{bytes.data(), std::size_t{60}}));
    std::memcpy(bytes.data() + 60, &crc, sizeof crc);
  }

  static std::uint64_t rejected_count() {
    for (const auto& counter : obs::Registry::instance().snapshot().counters) {
      if (counter.name == "graph.io.smxg_rejected") return counter.value;
    }
    return 0;
  }

  void expect_rejected(const std::string& what_substr,
                       MappedGraph::Options options = MappedGraph::Options{}) {
    const std::uint64_t before = rejected_count();
    try {
      const MappedGraph mapped{path_, options};
      FAIL() << "expected rejection containing '" << what_substr << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(what_substr), std::string::npos)
          << "actual: " << e.what();
    }
    EXPECT_EQ(rejected_count(), before + 1);
  }

  std::string path_;
  Graph graph_;
};

TEST_F(SmxgTest, RoundTripsBitExact) {
  const MappedGraph mapped{path_};
  const Graph& view = mapped.view();
  ASSERT_EQ(view.num_nodes(), graph_.num_nodes());
  ASSERT_EQ(view.num_half_edges(), graph_.num_half_edges());
  EXPECT_FALSE(view.owns_storage());
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    ASSERT_EQ(view.degree(v), graph_.degree(v)) << "v=" << v;
    const auto a = view.neighbors(v);
    const auto b = graph_.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "v=" << v;
  }
  EXPECT_EQ(mapped.fingerprint(), structural_fingerprint(graph_));
  EXPECT_EQ(structural_fingerprint(view), structural_fingerprint(graph_));
}

TEST_F(SmxgTest, PackPlanBalancesHalfEdges) {
  const ShardPlan plan = ShardPlan::balanced(graph_.offsets(), 4);
  ASSERT_EQ(plan.num_shards(), 4u);
  const EdgeIndex total = graph_.num_half_edges();
  const auto offsets = graph_.offsets();
  NodeId max_degree = 0;
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    max_degree = std::max(max_degree, graph_.degree(v));
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    const EdgeIndex span = offsets[plan.end(s)] - offsets[plan.begin(s)];
    // Each shard's half-edge share stays within a max-degree slop of the
    // ideal quarter (the split lands on a row boundary).
    EXPECT_NEAR(static_cast<double>(span), static_cast<double>(total) / 4.0,
                static_cast<double>(max_degree))
        << "shard " << s;
  }
}

TEST_F(SmxgTest, ShardSectionIsAcceptedAndSkipped) {
  // A pack written with a multi-shard SHRD section (as earlier builds and
  // perfbench/ write them) loads to the same CSR, and a damaged SHRD
  // payload is never read.
  write_smxg_file(path_, graph_, ShardPlan::balanced(graph_.offsets(), 4),
                  WriteOptions{});
  auto bytes = slurp();
  std::uint32_t num_sections = 0;
  std::memcpy(&num_sections, bytes.data() + 12, sizeof num_sections);
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    const char* entry = bytes.data() + kHeaderBytes + i * kSectionEntryBytes;
    std::uint32_t id = 0;
    std::uint64_t offset = 0;
    std::memcpy(&id, entry, sizeof id);
    std::memcpy(&offset, entry + 8, sizeof offset);
    if (id == kSectionShards) bytes[static_cast<std::size_t>(offset)] ^= 0x5a;
  }
  dump(bytes);
  const MappedGraph mapped{path_};
  const auto a = mapped.view().raw_neighbors();
  const auto b = graph_.raw_neighbors();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST_F(SmxgTest, TruncatedHeaderRejects) {
  auto bytes = slurp();
  bytes.resize(32);
  dump(bytes);
  expect_rejected("truncated header");
}

TEST_F(SmxgTest, FileShorterThanHeaderClaimsRejects) {
  auto bytes = slurp();
  bytes.resize(bytes.size() - 128);
  dump(bytes);
  expect_rejected("shorter than header claims");
}

TEST_F(SmxgTest, CorruptSectionPayloadRejects) {
  auto bytes = slurp();
  // Flip one bit deep in the adjacency payload; only the section CRC can
  // catch this.
  bytes[bytes.size() - 256] = static_cast<char>(bytes[bytes.size() - 256] ^ 0x40);
  dump(bytes);
  expect_rejected("section");
}

TEST_F(SmxgTest, WrongEndianHeaderRejects) {
  auto bytes = slurp();
  // Byte-swap the endian tag: what a little-endian writer looks like to a
  // big-endian reader (and vice versa).
  std::swap(bytes[4], bytes[7]);
  std::swap(bytes[5], bytes[6]);
  restamp_header_crc(bytes);
  dump(bytes);
  expect_rejected("endian");
}

TEST_F(SmxgTest, VersionSkewRejects) {
  auto bytes = slurp();
  const std::uint32_t future = kVersion + 7;
  std::memcpy(bytes.data() + 8, &future, sizeof future);
  restamp_header_crc(bytes);
  dump(bytes);
  expect_rejected("version");
}

TEST_F(SmxgTest, CorruptHeaderCrcRejects) {
  auto bytes = slurp();
  bytes[16] = static_cast<char>(bytes[16] ^ 0x01);  // num_nodes, CRC not restamped
  dump(bytes);
  expect_rejected("header");
}

TEST_F(SmxgTest, BadMagicRejects) {
  auto bytes = slurp();
  bytes[0] = 'X';
  restamp_header_crc(bytes);
  dump(bytes);
  expect_rejected("magic");
}

TEST_F(SmxgTest, MissingFileRejects) {
  fs::remove(path_);
  EXPECT_THROW(MappedGraph{path_}, std::runtime_error);
}

TEST_F(SmxgTest, UncompressedVersionRelabeledCompressedRejects) {
  // A v1 section set under the v2 version stamp: the adjacency must match
  // the version, not just parse.
  auto bytes = slurp();
  const std::uint32_t v2 = kVersionCompressed;
  std::memcpy(bytes.data() + 8, &v2, sizeof v2);
  restamp_header_crc(bytes);
  dump(bytes);
  expect_rejected("carries ADJ4");
}

// ------------------------------------------------- compressed containers --

class SmxgCompressedTest : public SmxgTest {
 protected:
  void SetUp() override {
    SmxgTest::SetUp();
    WriteOptions options;
    options.compress = true;
    write_smxg_file(path_, graph_, options);
  }

  /// Byte range of section `want`'s payload, read from the section table.
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> section_extent(
      const std::vector<char>& bytes, std::uint32_t want) {
    std::uint32_t num_sections = 0;
    std::memcpy(&num_sections, bytes.data() + 12, sizeof num_sections);
    for (std::uint32_t i = 0; i < num_sections; ++i) {
      const char* entry = bytes.data() + kHeaderBytes + i * kSectionEntryBytes;
      std::uint32_t id = 0;
      std::memcpy(&id, entry, sizeof id);
      if (id != want) continue;
      std::uint64_t offset = 0;
      std::uint64_t size = 0;
      std::memcpy(&offset, entry + 8, sizeof offset);
      std::memcpy(&size, entry + 16, sizeof size);
      return {offset, size};
    }
    ADD_FAILURE() << "no section " << want;
    return {0, 0};
  }
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> adjc_extent(
      const std::vector<char>& bytes) {
    return section_extent(bytes, kSectionAdjacencyCompressed);
  }

  /// Re-stamps the ADJC section CRC after a deliberate payload edit, so
  /// the test reaches the structural checks behind it.
  static void restamp_adjc_crc(std::vector<char>& bytes) {
    const auto [offset, size] = adjc_extent(bytes);
    std::uint32_t num_sections = 0;
    std::memcpy(&num_sections, bytes.data() + 12, sizeof num_sections);
    const std::uint32_t crc = util::crc32(std::as_bytes(
        std::span{bytes.data() + offset, static_cast<std::size_t>(size)}));
    for (std::uint32_t i = 0; i < num_sections; ++i) {
      char* entry = bytes.data() + kHeaderBytes + i * kSectionEntryBytes;
      std::uint32_t id = 0;
      std::memcpy(&id, entry, sizeof id);
      if (id == kSectionAdjacencyCompressed) std::memcpy(entry + 4, &crc, sizeof crc);
    }
  }
};

TEST_F(SmxgCompressedTest, LoadsDecodedWithMatchingGeometry) {
  const MappedGraph mapped{path_};
  EXPECT_TRUE(mapped.compressed());
  const Graph& view = mapped.view();
  ASSERT_EQ(view.num_nodes(), graph_.num_nodes());
  ASSERT_EQ(view.num_half_edges(), graph_.num_half_edges());
  const auto a = view.offsets();
  const auto b = graph_.offsets();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  // The pack-time fingerprint and the decoded CSR's agree: the compressed
  // pack decodes to the graph it was written from.
  EXPECT_EQ(mapped.fingerprint(), structural_fingerprint(graph_));
  EXPECT_EQ(structural_fingerprint(view), structural_fingerprint(graph_));
}

TEST_F(SmxgCompressedTest, HalvesAdjacencyBytes) {
  const auto bytes = slurp();
  const auto [offset, size] = adjc_extent(bytes);
  EXPECT_GT(size, 0u);
  // The headline claim: delta + stream-vbyte on a social graph beats the
  // raw u32 array by at least 2x (typical gaps fit 1-2 bytes).
  EXPECT_LT(size, graph_.num_half_edges() * sizeof(NodeId) / 2);
}

TEST_F(SmxgCompressedTest, DecodesBitIdenticalAdjacency) {
  // Decoded once at open, on every kernel tier's decoder alike: the view is
  // the packed CSR, id for id.
  for (const bool verify : {true, false}) {
    MappedGraph::Options options;
    options.verify = verify;
    const MappedGraph mapped{path_, options};
    const auto a = mapped.view().raw_neighbors();
    const auto b = graph_.raw_neighbors();
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "verify=" << verify;
  }
}

TEST_F(SmxgCompressedTest, TruncationRejects) {
  auto bytes = slurp();
  bytes.resize(bytes.size() - 96);
  dump(bytes);
  expect_rejected("shorter than header claims");
}

TEST_F(SmxgCompressedTest, PayloadBitRotRejects) {
  auto bytes = slurp();
  const auto [offset, size] = adjc_extent(bytes);
  char& target = bytes[static_cast<std::size_t>(offset + size / 2)];
  target = static_cast<char>(target ^ 0x10);
  dump(bytes);
  expect_rejected("section CRC mismatch");
}

TEST_F(SmxgCompressedTest, CorruptGroupIndexRejects) {
  auto bytes = slurp();
  const auto [offset, size] = adjc_extent(bytes);
  // The group index trails the payload: (groups + 1) x u64. Break its
  // anchor (index[0] must equal the head size) and re-stamp the CRC so
  // the structural parse — not the checksum — must catch it.
  const std::uint64_t groups =
      adjc::num_groups(graph_.num_nodes(), adjc::kGroupRows);
  const std::uint64_t bogus = 3;
  std::memcpy(bytes.data() + offset + size - (groups + 1) * 8, &bogus, sizeof bogus);
  restamp_adjc_crc(bytes);
  dump(bytes);
  expect_rejected("ADJC group index");
}

TEST_F(SmxgCompressedTest, CorruptStreamFailsClosedAtDecodeTime) {
  // Skip load-time CRC verification (the fast path for huge containers)
  // and damage a group's ctrl stream: the decoder's pre-decode byte-count
  // check must reject it while the pack is opened.
  auto bytes = slurp();
  const auto [offset, size] = adjc_extent(bytes);
  bytes[static_cast<std::size_t>(offset) + adjc::kHeadBytes] = static_cast<char>(0xff);
  dump(bytes);
  MappedGraph::Options options;
  options.verify = false;
  expect_rejected("byte count mismatch", options);
}

// Every decoder defect, with the CRC re-stamped so the decoder — not the
// checksum — must catch it, and with verification on and off.

TEST_F(SmxgCompressedTest, TruncatedGroupStreamRejectsAtOpen) {
  // Group 1's stream starts at group 0's: group 0 has no bytes at all, not
  // even its ctrl bytes.
  auto bytes = slurp();
  const auto [offset, size] = adjc_extent(bytes);
  const std::uint64_t groups = adjc::num_groups(graph_.num_nodes(), adjc::kGroupRows);
  ASSERT_GE(groups, 2u);
  const std::uint64_t head = adjc::kHeadBytes;
  std::memcpy(bytes.data() + offset + size - (groups + 1) * 8 + 8, &head, sizeof head);
  restamp_adjc_crc(bytes);
  dump(bytes);
  for (const bool verify : {true, false}) {
    MappedGraph::Options options;
    options.verify = verify;
    expect_rejected("too short", options);
  }
}

TEST_F(SmxgCompressedTest, ByteCountMismatchRejectsAtOpen) {
  // Widen one coded length: the stream no longer ends where the index says.
  auto bytes = slurp();
  const auto [offset, size] = adjc_extent(bytes);
  char& ctrl = bytes[static_cast<std::size_t>(offset + adjc::kHeadBytes)];
  ctrl = static_cast<char>(ctrl ^ 0x01);
  restamp_adjc_crc(bytes);
  dump(bytes);
  for (const bool verify : {true, false}) {
    MappedGraph::Options options;
    options.verify = verify;
    expect_rejected("byte count mismatch", options);
  }
}

/// graph_'s CSR with `edit` applied to its neighbor array, as a Graph
/// that breaks the class invariants on purpose (from_csr does not check
/// them), so the writer encodes a stream no honest graph produces.
Graph tampered(const Graph& g, void (*edit)(const Graph&, std::vector<NodeId>&)) {
  std::vector<EdgeIndex> offsets(g.offsets().begin(), g.offsets().end());
  std::vector<NodeId> neighbors(g.raw_neighbors().begin(), g.raw_neighbors().end());
  edit(g, neighbors);
  return Graph::from_csr(std::move(offsets), std::move(neighbors));
}

TEST_F(SmxgCompressedTest, NeighborIdOutOfRangeRejectsAtOpen) {
  // The last row's last id becomes n: a positive gap past the last vertex.
  const Graph bad = tampered(graph_, [](const Graph& g, std::vector<NodeId>& nbrs) {
    nbrs.back() = g.num_nodes();
  });
  WriteOptions options;
  options.compress = true;
  write_smxg_file(path_, bad, options);
  for (const bool verify : {true, false}) {
    MappedGraph::Options open;
    open.verify = verify;
    expect_rejected("neighbor id out of range", open);
  }
}

TEST_F(SmxgCompressedTest, GapOverflowRejectsAtOpen) {
  // Row 0's first two ids swapped: the second is stored as the 4-byte gap
  // a - b, which a u32 accumulator would wrap back to the in-range id a.
  // Undeltaed in u64 it lands past 2^32 and is rejected.
  ASSERT_GE(graph_.degree(0), 2u);
  const Graph bad = tampered(graph_, [](const Graph& g, std::vector<NodeId>& nbrs) {
    std::swap(nbrs[g.offsets()[0]], nbrs[g.offsets()[0] + 1]);
  });
  WriteOptions options;
  options.compress = true;
  write_smxg_file(path_, bad, options);
  for (const bool verify : {true, false}) {
    MappedGraph::Options open;
    open.verify = verify;
    expect_rejected("neighbor id out of range", open);
  }
}

TEST_F(SmxgCompressedTest, StreamsPayloadsLargerThanOneBlock) {
  // An open reads ADJC about 1 MiB of whole groups at a time. Rows 0..299
  // each list all 5000 vertices, so group 0 alone codes to more than a
  // block and gets a block of its own; the other groups share blocks.
  constexpr NodeId kNodes = 5000;
  std::vector<EdgeIndex> offsets{0};
  std::vector<NodeId> neighbors;
  for (NodeId v = 0; v < kNodes; ++v) {
    if (v < 300) {
      for (NodeId u = 0; u < kNodes; ++u) neighbors.push_back(u);
    } else {
      neighbors.push_back(v % 7);
    }
    offsets.push_back(neighbors.size());
  }
  const Graph big = Graph::from_csr(std::move(offsets), std::move(neighbors));
  WriteOptions compress;
  compress.compress = true;
  write_smxg_file(path_, big, compress);
  const auto [offset, size] = adjc_extent(slurp());
  ASSERT_GT(size, std::uint64_t{1} << 20);
  for (const linalg::simd::Tier tier : test::available_tiers()) {
    const test::TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    for (const bool verify : {true, false}) {
      MappedGraph::Options options;
      options.verify = verify;
      const MappedGraph mapped{path_, options};
      const auto a = mapped.view().raw_neighbors();
      const auto b = big.raw_neighbors();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << linalg::simd::tier_name(tier) << " verify=" << verify;
    }
  }
  // A decode defect in the first block does not end the read: the CRC
  // over the whole payload still runs and its mismatch is what is
  // reported; re-stamped, the decoder's defect is.
  auto bytes = slurp();
  char& ctrl = bytes[static_cast<std::size_t>(offset + adjc::kHeadBytes)];
  ctrl = static_cast<char>(ctrl ^ 0x01);
  dump(bytes);
  expect_rejected("section CRC mismatch (ADJC)");
  restamp_adjc_crc(bytes);
  dump(bytes);
  expect_rejected("byte count mismatch");
}

TEST_F(SmxgCompressedTest, EveryByteFlipAndTruncationFailsClosed) {
  // A deterministic mutation sweep: every byte of the header, OFFS and
  // ADJC inverted in turn, and the file cut at every length. With
  // verification on, each mutant must be rejected. With it off, the
  // header CRC, the structural checks, the decoder (on every kernel tier)
  // and the header fingerprint are the guards: a mutant must be rejected
  // or load exactly the packed CSR (a flipped slack byte changes nothing).
  const std::vector<char> clean = slurp();
  const auto [offs_offset, offs_size] = section_extent(clean, kSectionOffsets);
  const auto [adjc_offset, adjc_size] = adjc_extent(clean);
  const auto same_csr = [&](const Graph& view) {
    const auto a = view.offsets();
    const auto b = graph_.offsets();
    const auto x = view.raw_neighbors();
    const auto y = graph_.raw_neighbors();
    return std::equal(a.begin(), a.end(), b.begin(), b.end()) &&
           std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  // "rejected", "same" or "DIFFERENT CSR" for the file as it is now.
  const auto outcome = [&](bool verify) -> std::string {
    const std::uint64_t before = rejected_count();
    MappedGraph::Options options;
    options.verify = verify;
    try {
      const MappedGraph mapped{path_, options};
      return same_csr(mapped.view()) ? "same" : "DIFFERENT CSR";
    } catch (const std::runtime_error& e) {
      return rejected_count() == before + 1 ? "rejected"
                                            : std::string{"uncounted: "} + e.what();
    }
  };
  struct Range {
    const char* name;
    std::uint64_t begin;
    std::uint64_t end;
  };
  const Range ranges[] = {{"header", 0, kHeaderBytes},
                          {"OFFS", offs_offset, offs_offset + offs_size},
                          {"ADJC", adjc_offset, adjc_offset + adjc_size}};
  // Mutants are written in place and cut with resize_file: rewriting a
  // file from empty makes some filesystems flush it on every close.
  std::size_t mutants = 0;
  {
    std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
    ASSERT_TRUE(file.is_open());
    const auto put = [&](std::uint64_t at, char byte) {
      file.seekp(static_cast<std::streamoff>(at));
      file.put(byte);
      file.flush();
    };
    for (const Range& range : ranges) {
      const bool decoded = std::string{range.name} == "ADJC";
      // Only ADJC's decoder differs between tiers.
      const std::vector<linalg::simd::Tier> tiers =
          decoded ? test::available_tiers()
                  : std::vector<linalg::simd::Tier>{linalg::simd::active_tier()};
      for (std::uint64_t i = range.begin; i < range.end; ++i) {
        const char original = clean[static_cast<std::size_t>(i)];
        put(i, static_cast<char>(~original));
        ++mutants;
        ASSERT_EQ(outcome(true), "rejected") << range.name << " byte " << i - range.begin;
        for (const linalg::simd::Tier tier : tiers) {
          const test::TierGuard guard{tier};
          ASSERT_TRUE(guard.ok());
          const std::string unverified = outcome(false);
          ASSERT_TRUE(unverified == "rejected" || unverified == "same")
              << range.name << " byte " << i - range.begin << " unverified on "
              << linalg::simd::tier_name(tier) << ": " << unverified;
        }
        put(i, original);
      }
    }
  }
  for (std::size_t len = clean.size(); len-- > 0;) {
    fs::resize_file(path_, len);
    ++mutants;
    ASSERT_EQ(outcome(true), "rejected") << "truncated to " << len;
    ASSERT_EQ(outcome(false), "rejected") << "truncated to " << len;
  }
  EXPECT_GT(mutants, clean.size());
  dump(clean);
  EXPECT_EQ(outcome(false), "same");
}

TEST_F(SmxgCompressedTest, CompressedVersionRelabeledUncompressedRejects) {
  auto bytes = slurp();
  const std::uint32_t v1 = kVersion;
  std::memcpy(bytes.data() + 8, &v1, sizeof v1);
  restamp_header_crc(bytes);
  dump(bytes);
  expect_rejected("carries ADJC");
}

}  // namespace
}  // namespace socmix::graph::sharded
