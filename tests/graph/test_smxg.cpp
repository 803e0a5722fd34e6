// The .smxg container: round-trip fidelity, the decode of the ADJC
// adjacency at open, and — critically — the loader's failure paths. Every
// malformed container must fail closed (std::runtime_error + a
// graph.io.smxg_rejected bump), never hand garbage to the kernels:
// truncation, payload bit-rot, a wrong-endian header, version skew (the
// retired raw version 1 included), a file shorter than its header claims
// and every kind of damaged ADJC stream are each exercised by corrupting
// a valid pack in place.
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
  /// Makes the pack hold exactly `bytes`, edited in place: rewriting a file
  /// from empty makes some filesystems flush it on every close.
  void dump(const std::vector<char>& bytes) const {
    {
      std::fstream out{path_, std::ios::binary | std::ios::in | std::ios::out};
      ASSERT_TRUE(out.is_open()) << path_;
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    if (fs::file_size(path_) != bytes.size()) fs::resize_file(path_, bytes.size());
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

  void expect_rejected(const std::string& what_substr) {
    const std::uint64_t before = rejected_count();
    try {
      const MappedGraph mapped{path_};
      FAIL() << "expected rejection containing '" << what_substr << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(what_substr), std::string::npos)
          << "actual: " << e.what();
    }
    EXPECT_EQ(rejected_count(), before + 1);
  }

  /// Byte range of section `want`'s payload, read from the section table.
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> section_extent(
      const std::vector<char>& bytes, std::uint32_t want) {
    const char* entry = section_entry(bytes, want);
    if (entry == nullptr) return {0, 0};
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::memcpy(&offset, entry + 8, sizeof offset);
    std::memcpy(&size, entry + 16, sizeof size);
    return {offset, size};
  }
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> adjc_extent(
      const std::vector<char>& bytes) {
    return section_extent(bytes, kSectionAdjacencyCompressed);
  }

  /// File offset of section `want`'s table entry.
  [[nodiscard]] static std::uint64_t section_entry_offset(const std::vector<char>& bytes,
                                                          std::uint32_t want) {
    return static_cast<std::uint64_t>(section_entry(bytes, want) - bytes.data());
  }

  /// Re-stamps section `id`'s CRC after a deliberate payload edit, so the
  /// test reaches the structural and decode checks behind it: a CRC is an
  /// integrity check, and anyone can write a matching one.
  static void restamp_section_crc(std::vector<char>& bytes, std::uint32_t id) {
    const auto [offset, size] = section_extent(bytes, id);
    const std::uint32_t crc = util::crc32(std::as_bytes(
        std::span{bytes.data() + offset, static_cast<std::size_t>(size)}));
    std::memcpy(bytes.data() + section_entry_offset(bytes, id) + 4, &crc, sizeof crc);
  }
  static void restamp_adjc_crc(std::vector<char>& bytes) {
    restamp_section_crc(bytes, kSectionAdjacencyCompressed);
  }

  std::string path_;
  Graph graph_;

 private:
  [[nodiscard]] static const char* section_entry(const std::vector<char>& bytes,
                                                 std::uint32_t want) {
    std::uint32_t num_sections = 0;
    std::memcpy(&num_sections, bytes.data() + 12, sizeof num_sections);
    for (std::uint32_t i = 0; i < num_sections; ++i) {
      const char* entry = bytes.data() + kHeaderBytes + i * kSectionEntryBytes;
      std::uint32_t id = 0;
      std::memcpy(&id, entry, sizeof id);
      if (id == want) return entry;
    }
    ADD_FAILURE() << "no section " << want;
    return nullptr;
  }
};

// Every pack is ADJC-compressed, so the decode and mutation tests below
// share the one fixture; they keep their suite name.
using SmxgCompressedTest = SmxgTest;

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
  // The pack-time fingerprint and the decoded CSR's agree.
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
  bytes[static_cast<std::size_t>(section_extent(bytes, kSectionShards).first)] ^= 0x5a;
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
  // Flip one bit of a mid-graph row offset: the section CRC, checked
  // before the offsets are, catches it.
  const auto [offset, size] = section_extent(bytes, kSectionOffsets);
  char& target = bytes[static_cast<std::size_t>(offset + size / 2) & ~std::size_t{7}];
  target = static_cast<char>(target ^ 0x01);
  dump(bytes);
  expect_rejected("section CRC mismatch (OFFS)");
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
  // A version-2 header over a raw ADJ4 adjacency section (its table entry
  // relabeled): version 2 reads only ADJC, so the pack has no adjacency.
  auto bytes = slurp();
  constexpr std::uint32_t kAdj4 = 0x344A4441;  // 'ADJ4', version 1's section
  std::memcpy(bytes.data() + section_entry_offset(bytes, kSectionAdjacencyCompressed),
              &kAdj4, sizeof kAdj4);
  dump(bytes);
  expect_rejected("missing required section (OFFS/ADJC)");
}

TEST_F(SmxgCompressedTest, LoadsDecodedWithMatchingGeometry) {
  // The writer emits exactly OFFS, ADJC and SHRD, and the decoded view
  // has the packed graph's geometry.
  const MappedGraph mapped{path_};
  std::vector<std::uint32_t> ids;
  for (const SectionInfo& s : mapped.sections()) ids.push_back(s.id);
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{kSectionOffsets, kSectionAdjacencyCompressed,
                                             kSectionShards}));
  const Graph& view = mapped.view();
  ASSERT_EQ(view.num_nodes(), graph_.num_nodes());
  ASSERT_EQ(view.num_half_edges(), graph_.num_half_edges());
  const auto a = view.offsets();
  const auto b = graph_.offsets();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
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
  for (const linalg::simd::Tier tier : test::available_tiers()) {
    const test::TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    const MappedGraph mapped{path_};
    const auto a = mapped.view().raw_neighbors();
    const auto b = graph_.raw_neighbors();
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << linalg::simd::tier_name(tier);
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
  // Claim 4-byte codes for a group's first four values, under a matching
  // CRC: the decoder's pre-decode byte-count check must reject the stream
  // while the pack is opened, before any overlong read.
  auto bytes = slurp();
  const auto [offset, size] = adjc_extent(bytes);
  bytes[static_cast<std::size_t>(offset) + adjc::kHeadBytes] = static_cast<char>(0xff);
  restamp_adjc_crc(bytes);
  dump(bytes);
  expect_rejected("byte count mismatch");
}

// Every decoder defect, with the CRC re-stamped so the decoder — not the
// checksum — must catch it.

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
  expect_rejected("too short");
}

TEST_F(SmxgCompressedTest, ByteCountMismatchRejectsAtOpen) {
  // Widen one coded length: the stream no longer ends where the index says.
  auto bytes = slurp();
  const auto [offset, size] = adjc_extent(bytes);
  char& ctrl = bytes[static_cast<std::size_t>(offset + adjc::kHeadBytes)];
  ctrl = static_cast<char>(ctrl ^ 0x01);
  restamp_adjc_crc(bytes);
  dump(bytes);
  expect_rejected("byte count mismatch");
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
  write_smxg_file(path_, bad);
  expect_rejected("neighbor id out of range");
}

TEST_F(SmxgCompressedTest, GapOverflowRejectsAtOpen) {
  // Row 0's first two ids swapped: the second is stored as the 4-byte gap
  // a - b, which a u32 accumulator would wrap back to the in-range id a.
  // Undeltaed in u64 it lands past 2^32 and is rejected.
  ASSERT_GE(graph_.degree(0), 2u);
  const Graph bad = tampered(graph_, [](const Graph& g, std::vector<NodeId>& nbrs) {
    std::swap(nbrs[g.offsets()[0]], nbrs[g.offsets()[0] + 1]);
  });
  write_smxg_file(path_, bad);
  expect_rejected("neighbor id out of range");
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
  write_smxg_file(path_, big);
  const auto [offset, size] = adjc_extent(slurp());
  ASSERT_GT(size, std::uint64_t{1} << 20);
  for (const linalg::simd::Tier tier : test::available_tiers()) {
    const test::TierGuard guard{tier};
    ASSERT_TRUE(guard.ok());
    const MappedGraph mapped{path_};
    const auto a = mapped.view().raw_neighbors();
    const auto b = big.raw_neighbors();
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << linalg::simd::tier_name(tier);
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
  // A deterministic mutation sweep, on every kernel tier (the CRC and the
  // ADJC decoder differ between tiers):
  //  * every byte of the header, OFFS and ADJC inverted in turn, and the
  //    file cut at every length: each mutant is rejected;
  //  * every byte of OFFS and ADJC inverted with that section's CRC
  //    re-stamped, as a crafted pack would be: the structural checks and
  //    the decoder are the guards, so a mutant is rejected or loads a CSR
  //    every kernel can index — offsets rising from 0 to the header's
  //    half-edge count, every id below n. (It need not be the packed
  //    graph: a valid CRC does not make a file honest.)
  const std::vector<char> clean = slurp();
  const auto [offs_offset, offs_size] = section_extent(clean, kSectionOffsets);
  const auto [adjc_offset, adjc_size] = adjc_extent(clean);
  const auto indexable = [&](const Graph& view) {
    const auto offsets = view.offsets();
    const NodeId n = graph_.num_nodes();
    if (view.num_nodes() != n || offsets.front() != 0 ||
        offsets.back() != graph_.num_half_edges()) {
      return false;
    }
    if (!std::is_sorted(offsets.begin(), offsets.end())) return false;
    const auto ids = view.raw_neighbors();
    return ids.size() == graph_.num_half_edges() &&
           std::all_of(ids.begin(), ids.end(), [n](NodeId v) { return v < n; });
  };
  // "rejected", "loaded" or "BROKEN CSR" for the file as it is now.
  const auto outcome = [&]() -> std::string {
    const std::uint64_t before = rejected_count();
    try {
      const MappedGraph mapped{path_};
      return indexable(mapped.view()) ? "loaded" : "BROKEN CSR";
    } catch (const std::runtime_error& e) {
      return rejected_count() == before + 1 ? "rejected"
                                            : std::string{"uncounted: "} + e.what();
    }
  };
  struct Range {
    const char* name;
    std::uint32_t id;  ///< the section, or 0 for the header
    std::uint64_t begin;
    std::uint64_t end;
  };
  const Range ranges[] = {{"header", 0, 0, kHeaderBytes},
                          {"OFFS", kSectionOffsets, offs_offset, offs_offset + offs_size},
                          {"ADJC", kSectionAdjacencyCompressed, adjc_offset,
                           adjc_offset + adjc_size}};
  const std::vector<linalg::simd::Tier> tiers = test::available_tiers();
  // Mutants are written in place and cut with resize_file: rewriting a
  // file from empty makes some filesystems flush it on every close.
  std::size_t mutants = 0;
  {
    std::fstream file{path_, std::ios::binary | std::ios::in | std::ios::out};
    ASSERT_TRUE(file.is_open());
    const auto put = [&](std::uint64_t at, const void* bytes, std::size_t size) {
      file.seekp(static_cast<std::streamoff>(at));
      file.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(size));
      file.flush();
    };
    for (const Range& range : ranges) {
      std::vector<char> section(clean.begin() + static_cast<std::ptrdiff_t>(range.begin),
                                clean.begin() + static_cast<std::ptrdiff_t>(range.end));
      const std::uint64_t crc_at =
          range.id == 0 ? 0 : section_entry_offset(clean, range.id) + 4;
      for (std::uint64_t i = range.begin; i < range.end; ++i) {
        char& byte = section[static_cast<std::size_t>(i - range.begin)];
        byte = static_cast<char>(~byte);
        put(i, &byte, 1);
        for (const bool restamped : {false, true}) {
          if (restamped) {
            if (range.id == 0) continue;
            const std::uint32_t crc = util::crc32(std::as_bytes(std::span{section}));
            put(crc_at, &crc, sizeof crc);
          }
          ++mutants;
          for (const linalg::simd::Tier tier : tiers) {
            const test::TierGuard guard{tier};
            ASSERT_TRUE(guard.ok());
            const std::string got = outcome();
            ASSERT_TRUE(got == "rejected" || (restamped && got == "loaded"))
                << range.name << " byte " << i - range.begin
                << (restamped ? " (CRC re-stamped)" : "") << " on "
                << linalg::simd::tier_name(tier) << ": " << got;
          }
        }
        byte = static_cast<char>(~byte);
        put(i, &byte, 1);
        if (range.id != 0) put(crc_at, clean.data() + crc_at, 4);
      }
    }
  }
  for (std::size_t len = clean.size(); len-- > 0;) {
    fs::resize_file(path_, len);
    ++mutants;
    ASSERT_EQ(outcome(), "rejected") << "truncated to " << len;
  }
  EXPECT_GT(mutants, clean.size());
  dump(clean);
  EXPECT_EQ(outcome(), "loaded");
}

TEST_F(SmxgCompressedTest, CompressedVersionRelabeledUncompressedRejects) {
  // A pack relabeled as the retired raw format (version 1), its header CRC
  // re-stamped, is refused by name: version 1 is no longer read.
  auto bytes = slurp();
  const std::uint32_t v1 = kVersionRawAdjacency;
  std::memcpy(bytes.data() + 8, &v1, sizeof v1);
  restamp_header_crc(bytes);
  dump(bytes);
  expect_rejected("format version 1 (raw ADJ4) is no longer read; repack with graph_pack");
}

}  // namespace
}  // namespace socmix::graph::sharded
