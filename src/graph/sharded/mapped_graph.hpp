// Read-only memory-mapped view of a `.smxg` sharded CSR container.
//
// MappedGraph validates the container fully up front (header CRC, per-
// section CRCs, CSR structural invariants — every failure mode rejects
// with a graph.io.* metric, see format.hpp), then exposes the on-disk
// arrays as a borrowed graph::Graph with zero copies: the kernels index
// the file's pages directly and the OS pages them in on demand. A raw
// (uncompressed) pack is swept like an in-memory CSR, as one shard. Over
// a compressed pack the shard pipeline drives residency explicitly —
// advise_rows(WILLNEED) on the shard window about to be decoded,
// release_rows(DONTNEED) on the one just finished — so a graph far larger
// than RAM streams through a bounded window. madvise failures are counted
// (graph.io.smxg_advise_failed) and degrade to the sync paging path;
// they are hints, never correctness. On platforms without mmap the
// container degrades to a heap read of the whole file (same validation,
// same view, no residency control).
//
// Compressed containers (format version 2, ADJC section): the view is
// headless — row offsets map directly, neighbor ids stay stream-vbyte
// coded on disk and are decoded per shard window by linalg::ShardPipeline
// into scratch that is bit-identical to the raw array. advise/release/
// window accounting automatically cover the compressed byte ranges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sharded/adjc.hpp"
#include "graph/sharded/plan.hpp"
#include "util/aligned.hpp"

namespace socmix::graph::sharded {

/// Process-wide page-fault totals (getrusage), for fault-delta metrics
/// around sharded sweeps. Zeros where the platform has no getrusage.
struct PageFaults {
  std::uint64_t minor = 0;
  std::uint64_t major = 0;
};
[[nodiscard]] PageFaults process_page_faults() noexcept;

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
    /// Verify section CRCs and scan neighbor ids (one sequential pass
    /// over the file at load; the cheap structural checks always run).
    /// Compressed adjacency has no id scan here — the section CRC covers
    /// the coded bytes and the decoder re-validates every group it
    /// expands (gap overflow, id range, exact byte consumption).
    bool verify = true;
  };

  MappedGraph() = default;
  /// Maps and validates `path`; throws std::runtime_error (after bumping
  /// graph.io.smxg_rejected / graph.io.load_failures) on any defect.
  explicit MappedGraph(const std::string& path);
  MappedGraph(const std::string& path, Options options);
  ~MappedGraph();

  MappedGraph(const MappedGraph&) = delete;
  MappedGraph& operator=(const MappedGraph&) = delete;
  MappedGraph(MappedGraph&& other) noexcept { steal(other); }
  MappedGraph& operator=(MappedGraph&& other) noexcept {
    if (this != &other) {
      unmap();
      steal(other);
    }
    return *this;
  }

  /// Borrowed CSR view over the mapped arrays; valid while *this lives.
  /// Headless (view().headless()) when the container is compressed.
  [[nodiscard]] const Graph& view() const noexcept { return view_; }

  /// The pack-time shard plan stored in the file (>= 1 shard). Runtime
  /// policies may re-plan with any count; this is the packer's default.
  [[nodiscard]] const ShardPlan& pack_plan() const noexcept { return pack_plan_; }

  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// True when backed by mmap (advise/release are no-ops otherwise).
  [[nodiscard]] bool is_mapped() const noexcept { return base_ != nullptr; }

  /// True when the adjacency is ADJC-compressed (format version 2).
  [[nodiscard]] bool compressed() const noexcept { return adjc_.present(); }

  /// The parsed compressed-adjacency geometry (present() iff compressed).
  [[nodiscard]] const adjc::AdjcView& adjc_view() const noexcept { return adjc_; }

  /// The validated section table (ids, CRCs, extents) for verify tooling.
  [[nodiscard]] const std::vector<SectionInfo>& sections() const noexcept {
    return sections_;
  }

  /// Bytes of container payload backing rows [begin, end) — the residency
  /// window a shard sweep needs (compressed bytes when ADJC).
  [[nodiscard]] std::size_t window_bytes(NodeId begin, NodeId end) const noexcept;

  /// madvise(WILLNEED) the pages backing rows [begin, end).
  void advise_rows(NodeId begin, NodeId end) const noexcept;
  /// madvise(DONTNEED) the pages backing rows [begin, end).
  void release_rows(NodeId begin, NodeId end) const noexcept;
  /// madvise(DONTNEED) the whole mapping (load-time validation warms the
  /// page cache; this resets residency before a windowed run).
  void release_all() const noexcept;

 private:
  struct ByteSpan {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };

  void load(const std::string& path, Options options);
  void unmap() noexcept;
  void steal(MappedGraph& other) noexcept;
  [[nodiscard]] ByteSpan offsets_span(NodeId begin, NodeId end) const noexcept;
  [[nodiscard]] ByteSpan adjacency_span(NodeId begin, NodeId end) const noexcept;

  void* base_ = nullptr;            // mmap base (null on the heap fallback)
  std::size_t mapped_bytes_ = 0;
  util::aligned_vector<std::byte> heap_;  // fallback storage
  Graph view_;
  ShardPlan pack_plan_;
  adjc::AdjcView adjc_;
  std::vector<SectionInfo> sections_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t offsets_file_offset_ = 0;  // payload offsets for advise math
  std::uint64_t adjacency_file_offset_ = 0;
};

}  // namespace socmix::graph::sharded
