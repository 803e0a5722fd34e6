// A `.smxg` container loaded into one resident CSR.
//
// MappedGraph validates the container fully up front (header CRC, per-
// section CRCs, CSR structural invariants — every failure mode rejects
// with a graph.io.* metric, see format.hpp) and reads its row offsets and
// adjacency into two buffers of its own, placed on huge pages once they
// are large (util::aligned_vector). A compressed (ADJC, format version 2)
// container is decoded into the same adjacency buffer while it is opened,
// and the coded bytes are dropped; the decoder re-validates every group,
// so a damaged stream throws here even with Options::verify off. Either
// way view() is an ordinary CSR, bit-identical to the graph that was
// packed, and every engine sweeps it like an in-memory graph.
//
// The pack-time shard plan (SHRD section) is accepted and skipped.
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
  struct Options {
    /// Verify section CRCs and scan raw neighbor ids (one sequential pass
    /// over the payloads; the cheap structural checks always run).
    /// Compressed adjacency needs no id scan: the decoder range-checks
    /// every id it reconstructs.
    bool verify = true;
  };

  MappedGraph() = default;
  /// Reads and validates `path`; throws std::runtime_error (after bumping
  /// graph.io.smxg_rejected / graph.io.load_failures) on any defect.
  explicit MappedGraph(const std::string& path);
  MappedGraph(const std::string& path, Options options);

  MappedGraph(const MappedGraph&) = delete;
  MappedGraph& operator=(const MappedGraph&) = delete;
  // Moves keep the buffers, so the borrowed view stays valid.
  MappedGraph(MappedGraph&&) noexcept = default;
  MappedGraph& operator=(MappedGraph&&) noexcept = default;

  /// Borrowed CSR view over the resident arrays; valid while *this lives.
  [[nodiscard]] const Graph& view() const noexcept { return view_; }

  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// True when the container's adjacency was ADJC-compressed (format
  /// version 2); the view is decoded either way.
  [[nodiscard]] bool compressed() const noexcept { return compressed_; }

  /// The validated section table (ids, CRCs, extents) for verify tooling.
  [[nodiscard]] const std::vector<SectionInfo>& sections() const noexcept {
    return sections_;
  }

 private:
  void load(const std::string& path, Options options);

  util::aligned_vector<EdgeIndex> offsets_;
  util::aligned_vector<NodeId> neighbors_;
  Graph view_;
  std::vector<SectionInfo> sections_;
  std::uint64_t fingerprint_ = 0;
  bool compressed_ = false;
};

}  // namespace socmix::graph::sharded
