// A `.smxg` container loaded into one resident CSR.
//
// MappedGraph validates the container fully on every open (header CRC,
// per-section CRCs, CSR structural invariants — every failure mode
// rejects with a graph.io.* metric, see format.hpp) and reads its row
// offsets into a buffer of its own. The ADJC adjacency is decoded into a
// second one, its coded bytes streamed through one reused cache-sized
// block, each block CRC-folded and decoded while it is in cache; the
// decoder re-validates every group, and a CRC mismatch is reported ahead
// of any decode defect. Both buffers sit on huge pages once they are
// large (util::uninit_vector). view() is an ordinary CSR, bit-identical
// to the graph that was packed, and every engine sweeps it like an
// in-memory graph.
//
// A version-1 (raw ADJ4) pack is refused by name; the pack-time shard
// plan (SHRD section) is accepted and skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/aligned.hpp"

namespace socmix::graph::sharded {

/// One validated section-table row (`graph_pack --verify` reporting).
struct SectionInfo {
  std::uint32_t id = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

class MappedGraph {
 public:
  MappedGraph() = default;
  /// Reads and validates `path`; throws std::runtime_error (after bumping
  /// graph.io.smxg_rejected / graph.io.load_failures) on any defect.
  explicit MappedGraph(const std::string& path);

  MappedGraph(const MappedGraph&) = delete;
  MappedGraph& operator=(const MappedGraph&) = delete;
  // Moves keep the buffers, so the borrowed view stays valid.
  MappedGraph(MappedGraph&&) noexcept = default;
  MappedGraph& operator=(MappedGraph&&) noexcept = default;

  /// Borrowed CSR view over the resident arrays; valid while *this lives.
  [[nodiscard]] const Graph& view() const noexcept { return view_; }

  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// The validated section table (ids, CRCs, extents) for verify tooling.
  [[nodiscard]] const std::vector<SectionInfo>& sections() const noexcept {
    return sections_;
  }

 private:
  void load(const std::string& path);

  // Written in full before they are read (a short read throws), so they
  // are allocated without zeroing.
  util::uninit_vector<EdgeIndex> offsets_;
  util::uninit_vector<NodeId> neighbors_;
  Graph view_;
  std::vector<SectionInfo> sections_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace socmix::graph::sharded
