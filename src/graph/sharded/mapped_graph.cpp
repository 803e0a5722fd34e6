#include "graph/sharded/mapped_graph.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "graph/sharded/adjc.hpp"
#include "graph/sharded/format.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/checksum.hpp"

namespace socmix::graph::sharded {

namespace {

[[noreturn]] void rejected(const std::string& what) {
  SOCMIX_COUNTER_ADD("graph.io.smxg_rejected", 1);
  SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
  throw std::runtime_error{"smxg: " + what};
}

[[nodiscard]] std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

[[nodiscard]] std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

MappedGraph::MappedGraph(const std::string& path) : MappedGraph(path, Options{}) {}

MappedGraph::MappedGraph(const std::string& path, Options options) {
  resilience::fault_point("graph.load");
  load(path, options);
}

void MappedGraph::load(const std::string& path, Options options) {
  std::error_code ec;
  const auto disk_size = std::filesystem::file_size(path, ec);
  if (ec) rejected("cannot stat " + path);
  if (disk_size < kHeaderBytes) rejected("truncated header in " + path);
  std::ifstream in{path, std::ios::binary};
  if (!in) rejected("cannot open " + path);
  const auto read_at = [&](std::uint64_t offset, void* dst, std::uint64_t bytes) {
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    if (!in) rejected("short read of " + path);
  };

  // Validate the header before trusting any size it states.
  std::byte head[kHeaderBytes];
  read_at(0, head, kHeaderBytes);
  if (load_u32(head + 0) != kMagic) rejected("bad magic (not a .smxg container)");
  if (load_u32(head + 4) != kEndianTag) {
    rejected("wrong-endian container (endian tag mismatch)");
  }
  if (util::crc32(std::span<const std::byte>{head, 60}) != load_u32(head + 60)) {
    rejected("header CRC mismatch");
  }
  const std::uint32_t version = load_u32(head + 8);
  if (version != kVersion && version != kVersionCompressed) {
    rejected("unsupported version " + std::to_string(version) + " (expected " +
             std::to_string(kVersion) + " or " + std::to_string(kVersionCompressed) +
             ")");
  }
  compressed_ = version == kVersionCompressed;
  const std::uint32_t num_sections = load_u32(head + 12);
  const std::uint64_t num_nodes = load_u64(head + 16);
  const std::uint64_t num_half_edges = load_u64(head + 24);
  const std::uint64_t file_bytes = load_u64(head + 40);
  fingerprint_ = load_u64(head + 48);

  // Plausibility before any allocation (the io.cpp discipline: a garbage
  // header must not turn into a terabyte buffer).
  constexpr std::uint64_t kMaxPlausible = std::uint64_t{1} << 36;
  if (num_nodes == 0 || num_nodes > kMaxPlausible || num_half_edges > kMaxPlausible) {
    rejected("implausible header sizes (nodes=" + std::to_string(num_nodes) +
             ", half_edges=" + std::to_string(num_half_edges) + ")");
  }
  if (num_sections < 3 || num_sections > 16) {
    rejected("implausible section count " + std::to_string(num_sections));
  }
  if (disk_size < file_bytes) {
    rejected("file shorter than header claims (" + std::to_string(disk_size) + " < " +
             std::to_string(file_bytes) + " bytes)");
  }
  if (disk_size != file_bytes) rejected("file size disagrees with header");
  const std::uint64_t table_end =
      kHeaderBytes + std::uint64_t{num_sections} * kSectionEntryBytes;
  if (table_end > file_bytes) rejected("section table exceeds file");

  std::vector<std::byte> table(static_cast<std::size_t>(table_end - kHeaderBytes));
  read_at(kHeaderBytes, table.data(), table.size());
  SectionInfo offs{};
  SectionInfo adj{};
  SectionInfo cadj{};
  sections_.clear();
  sections_.reserve(num_sections);
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    const std::byte* entry = table.data() + i * kSectionEntryBytes;
    SectionInfo section;
    section.id = load_u32(entry + 0);
    section.crc = load_u32(entry + 4);
    section.offset = load_u64(entry + 8);
    section.bytes = load_u64(entry + 16);
    if (section.offset % kPayloadAlign != 0) rejected("misaligned section payload");
    if (section.offset < table_end || section.offset + section.bytes < section.offset ||
        section.offset + section.bytes > file_bytes) {
      rejected("section payload out of bounds");
    }
    if (section.id == kSectionOffsets) offs = section;
    if (section.id == kSectionAdjacency) adj = section;
    if (section.id == kSectionAdjacencyCompressed) cadj = section;
    sections_.push_back(section);
  }
  // Exactly one adjacency representation, matched to the format version
  // (a v1 file smuggling an ADJC section — or vice versa — is rejected,
  // not silently preferred one way).
  if (compressed_ && adj.id != 0) rejected("compressed container carries ADJ4");
  if (!compressed_ && cadj.id != 0) rejected("uncompressed container carries ADJC");
  if (offs.id == 0 || (compressed_ ? cadj.id : adj.id) == 0) {
    rejected(compressed_ ? "missing required section (OFFS/ADJC)"
                         : "missing required section (OFFS/ADJ4)");
  }
  if (offs.bytes != (num_nodes + 1) * sizeof(EdgeIndex)) {
    rejected("offsets section size disagrees with header");
  }
  if (!compressed_ && adj.bytes != num_half_edges * sizeof(NodeId)) {
    rejected("adjacency section size disagrees with header");
  }

  const auto check_crc = [&](const void* payload, const SectionInfo& s,
                             const char* name) {
    if (!options.verify) return;
    const std::span<const std::byte> bytes{static_cast<const std::byte*>(payload),
                                           static_cast<std::size_t>(s.bytes)};
    if (util::crc32(bytes) != s.crc) {
      rejected(std::string{"section CRC mismatch ("} + name + ")");
    }
  };

  // Structural validation: the CSR invariants every kernel indexes by.
  offsets_.resize(static_cast<std::size_t>(num_nodes + 1));
  read_at(offs.offset, offsets_.data(), offs.bytes);
  check_crc(offsets_.data(), offs, "OFFS");
  if (offsets_[0] != 0 || offsets_[num_nodes] != num_half_edges) {
    rejected("corrupt CSR (offset endpoints disagree with header)");
  }
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    if (offsets_[i] > offsets_[i + 1]) rejected("corrupt CSR (non-monotone offsets)");
  }

  if (compressed_) {
    // The coded bytes live only until they are decoded. Held as u64 words
    // so the group index is read through its own type.
    const auto words = std::make_unique_for_overwrite<std::uint64_t[]>(
        static_cast<std::size_t>((cadj.bytes + 7) / 8));
    const auto* payload = reinterpret_cast<const std::uint8_t*>(words.get());
    read_at(cadj.offset, words.get(), cadj.bytes);
    check_crc(payload, cadj, "ADJC");
    adjc::AdjcView view;
    if (const std::string err =
            adjc::parse_adjc(payload, cadj.bytes, num_nodes, num_half_edges, view);
        !err.empty()) {
      rejected(err);
    }
    // Every coded id takes at least one data byte: a header claiming more
    // ids than that must not size the adjacency buffer.
    if (num_half_edges > cadj.bytes) {
      rejected("ADJC payload too small for its value count");
    }
    neighbors_.resize(static_cast<std::size_t>(num_half_edges));
    if (const std::string err = adjc::decode_adjc(view, offsets_, neighbors_.data());
        !err.empty()) {
      rejected(err);
    }
  } else {
    neighbors_.resize(static_cast<std::size_t>(num_half_edges));
    read_at(adj.offset, neighbors_.data(), adj.bytes);
    check_crc(neighbors_.data(), adj, "ADJ4");
    if (options.verify) {
      const auto n = static_cast<NodeId>(num_nodes);
      for (const NodeId v : neighbors_) {
        if (v >= n) rejected("corrupt CSR (neighbor id out of range)");
      }
    }
  }

  view_ = Graph::borrowed(offsets_, neighbors_);
  SOCMIX_COUNTER_ADD("graph.io.smxg_loaded", 1);
  SOCMIX_GAUGE_SET("graph.io.smxg_bytes", file_bytes);
}

}  // namespace socmix::graph::sharded
