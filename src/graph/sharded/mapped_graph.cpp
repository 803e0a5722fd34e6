#include "graph/sharded/mapped_graph.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "graph/sharded/adjc.hpp"
#include "graph/sharded/format.hpp"
#include "linalg/simd/kernels.hpp"
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

/// One pack file, read by byte range; a short read rejects the pack.
class PackFile {
 public:
  explicit PackFile(const std::string& path) : path_{path}, in_{path, std::ios::binary} {
    if (!in_) rejected("cannot open " + path);
  }

  void read_at(std::uint64_t offset, void* dst, std::uint64_t bytes) {
    seek(offset);
    read_next(dst, bytes);
  }
  void seek(std::uint64_t offset) { in_.seekg(static_cast<std::streamoff>(offset)); }
  /// Reads on from where the last read ended.
  void read_next(void* dst, std::uint64_t bytes) {
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    if (!in_) rejected("short read of " + path_);
  }

 private:
  std::string path_;
  std::ifstream in_;
};

/// Payload bytes per block of the streamed ADJC read: big enough that a
/// read costs about what its copy does, small enough that the block is
/// still in L2 when it is checked and decoded.
constexpr std::uint64_t kAdjcBlockBytes = std::uint64_t{1} << 20;

/// Reads the ADJC section `cadj` in payload order through one reused
/// block buffer, folding every byte into the section CRC and decoding
/// whole groups of each block into `neighbors` while the block is in
/// cache. The head and the trailing group index are read and validated
/// first (the index also places the block bounds on group boundaries).
///
/// Fail-closed order: a CRC mismatch is reported before any structural or
/// decode defect, so the whole payload is read and checked even after such
/// a defect (the decode stops at the first).
void load_adjc(PackFile& file, const SectionInfo& cadj, std::span<const EdgeIndex> offsets,
               std::uint64_t num_half_edges, util::uninit_vector<NodeId>& neighbors) {
  const linalg::simd::Crc32UpdateFn crc32_update = linalg::simd::dispatch().crc32_update;
  std::uint32_t crc = util::kCrc32Init;
  const auto fold = [&](const std::uint8_t* p, std::uint64_t bytes) {
    crc = crc32_update(crc, {reinterpret_cast<const std::byte*>(p),
                             static_cast<std::size_t>(bytes)});
  };

  std::uint8_t head[adjc::kHeadBytes] = {};
  const std::uint64_t head_bytes = std::min<std::uint64_t>(cadj.bytes, adjc::kHeadBytes);
  file.read_at(cadj.offset, head, head_bytes);
  adjc::AdjcLayout layout;
  std::string defect = adjc::parse_adjc_head(head, cadj.bytes, offsets.size() - 1,
                                             num_half_edges, layout);
  if (defect.empty()) {
    file.read_at(cadj.offset + layout.index_offset(), layout.group_offsets.data(),
                 layout.index_bytes());
    defect = adjc::check_group_index(layout);
  }
  // Every coded id takes at least one data byte: a header claiming more
  // ids than that must not size the adjacency buffer.
  if (defect.empty() && num_half_edges > cadj.bytes) {
    defect = "ADJC payload too small for its value count";
  }
  if (defect.empty()) neighbors.resize(static_cast<std::size_t>(num_half_edges));

  // Blocks of whole groups, each followed by kSlackBytes readable bytes
  // for the vector decoder; a group larger than a block gets a block (and
  // a buffer) of its own. The last block runs on through the slack to the
  // index. A payload whose layout did not parse is only checked, in
  // blocks of the usual size.
  fold(head, head_bytes);
  const std::uint64_t region_end = defect.empty() ? layout.index_offset() : cadj.bytes;
  std::vector<std::uint8_t> block(kAdjcBlockBytes + adjc::kSlackBytes);
  file.seek(cadj.offset + head_bytes);
  std::uint64_t pos = head_bytes;
  std::uint64_t group = 0;
  while (pos < region_end) {
    std::uint64_t end = std::min(region_end, pos + kAdjcBlockBytes);
    std::uint64_t group_end = group;
    if (defect.empty()) {
      const std::vector<std::uint64_t>& index = layout.group_offsets;
      group_end = std::min(group + 1, layout.num_groups);
      while (group_end < layout.num_groups && index[group_end + 1] - pos <= kAdjcBlockBytes) {
        ++group_end;
      }
      end = group_end == layout.num_groups ? region_end : index[group_end];
    }
    if (end - pos + adjc::kSlackBytes > block.size()) {
      block.resize(static_cast<std::size_t>(end - pos + adjc::kSlackBytes));
    }
    file.read_next(block.data(), end - pos);
    fold(block.data(), end - pos);
    if (defect.empty()) {
      defect = adjc::decode_groups(layout, group, group_end, block.data(), offsets,
                                   neighbors.data() + offsets[group * layout.group_rows]);
    }
    pos = end;
    group = group_end;
  }
  if (region_end < cadj.bytes) {
    fold(reinterpret_cast<const std::uint8_t*>(layout.group_offsets.data()),
         layout.index_bytes());
  }
  if (util::crc32_final(crc) != cadj.crc) {
    rejected("section CRC mismatch (ADJC)");
  }
  if (!defect.empty()) rejected(defect);
}

}  // namespace

MappedGraph::MappedGraph(const std::string& path) {
  resilience::fault_point("graph.load");
  load(path);
}

void MappedGraph::load(const std::string& path) {
  std::error_code ec;
  const auto disk_size = std::filesystem::file_size(path, ec);
  if (ec) rejected("cannot stat " + path);
  if (disk_size < kHeaderBytes) rejected("truncated header in " + path);
  PackFile file{path};

  // Validate the header before trusting any size it states.
  std::byte head[kHeaderBytes];
  file.read_at(0, head, kHeaderBytes);
  if (load_u32(head + 0) != kMagic) rejected("bad magic (not a .smxg container)");
  if (load_u32(head + 4) != kEndianTag) {
    rejected("wrong-endian container (endian tag mismatch)");
  }
  if (util::crc32(std::span<const std::byte>{head, 60}) != load_u32(head + 60)) {
    rejected("header CRC mismatch");
  }
  const std::uint32_t version = load_u32(head + 8);
  if (version == kVersionRawAdjacency) {
    rejected("format version 1 (raw ADJ4) is no longer read; repack with graph_pack");
  }
  if (version != kVersion) {
    rejected("unsupported version " + std::to_string(version) + " (expected " +
             std::to_string(kVersion) + ")");
  }
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
  file.read_at(kHeaderBytes, table.data(), table.size());
  SectionInfo offs{};
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
    if (section.id == kSectionAdjacencyCompressed) cadj = section;
    sections_.push_back(section);
  }
  if (offs.id == 0 || cadj.id == 0) rejected("missing required section (OFFS/ADJC)");
  if (offs.bytes != (num_nodes + 1) * sizeof(EdgeIndex)) {
    rejected("offsets section size disagrees with header");
  }

  // Structural validation: the CSR invariants every kernel indexes by. The
  // CRC runs on the dispatched tier's kernel (util::crc32's value on every
  // tier), as ADJC's does.
  offsets_.resize(static_cast<std::size_t>(num_nodes + 1));
  file.read_at(offs.offset, offsets_.data(), offs.bytes);
  const linalg::simd::Crc32UpdateFn crc32_update = linalg::simd::dispatch().crc32_update;
  const std::span<const std::byte> offs_bytes{
      reinterpret_cast<const std::byte*>(offsets_.data()),
      static_cast<std::size_t>(offs.bytes)};
  if (util::crc32_final(crc32_update(util::kCrc32Init, offs_bytes)) != offs.crc) {
    rejected("section CRC mismatch (OFFS)");
  }
  if (offsets_[0] != 0 || offsets_[num_nodes] != num_half_edges) {
    rejected("corrupt CSR (offset endpoints disagree with header)");
  }
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    if (offsets_[i] > offsets_[i + 1]) rejected("corrupt CSR (non-monotone offsets)");
  }

  load_adjc(file, cadj, offsets_, num_half_edges, neighbors_);
  view_ = Graph::borrowed(offsets_, neighbors_);
  SOCMIX_COUNTER_ADD("graph.io.smxg_loaded", 1);
  SOCMIX_GAUGE_SET("graph.io.smxg_bytes", file_bytes);
}

}  // namespace socmix::graph::sharded
