// Double-buffered shard window pipeline: hide I/O behind compute.
//
// The walk engines (markov::BatchedEvolver, linalg::WalkOperator) sweep
// a mapped CSR one contiguous shard at a time.
// Before this pipeline existed they advised the next window and paged it
// in synchronously — every cold page fault landed on the compute thread.
// ShardPipeline moves the paging (and, for compressed containers, the
// decoding) onto one dedicated worker thread with two window slots:
// while compute sweeps shard k, the worker faults shard k+1's bytes in
// (madvise(WILLNEED) + one touch per page) or decodes them into the
// other scratch slot, and the window behind the sweep is released. The
// sweep only ever blocks when the worker falls behind, and that stall is
// measured: markov.shard.prefetch_stall_seconds / prefetch_stalls along
// with the shard.prefetch_wait / shard.prefetch_fill trace spans are the
// overlap evidence (DESIGN.md "Shard pipeline & compression").
//
// IoMode::kSync preserves the pre-pipeline behavior exactly — the same
// madvise calls in the same order, decode (if any) inline on the compute
// thread. Either mode, either adjacency representation, the window handed
// to compute holds bit-identical neighbor ids in bit-identical order, so
// io-mode and compression are pure I/O knobs: results never change by a
// bit and neither is folded into the checkpoint context.
//
// Windows over a compressed (ADJC) container are decoded group-by-group
// into per-slot scratch and returned with `local == true`: `offsets` is
// then a window-local array (index row j - begin, values indexing
// `neighbors` directly) instead of the absolute CSR arrays. All decoding
// precedes all floating-point math of the shard, and the decoder
// re-validates every group (stream byte counts, id range) so a corrupt
// stream fails closed even when load-time CRC verification was skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "util/aligned.hpp"

namespace socmix::linalg {

/// How the sharded engines stage CSR windows (--io-mode sync|prefetch).
enum class IoMode : std::uint8_t {
  kSync = 0,      ///< advise ahead, fault on the compute thread (classic)
  kPrefetch = 1,  ///< worker thread faults/decodes one shard ahead
};

[[nodiscard]] const char* io_mode_name(IoMode mode) noexcept;
[[nodiscard]] std::optional<IoMode> parse_io_mode(std::string_view name) noexcept;

/// One shard's adjacency, ready for the kernels.
///
/// local == false: `offsets`/`neighbors` are the graph's absolute CSR
/// arrays (row j of the shard is indexed as offsets[j], j in
/// [begin, end)) — the uncompressed passthrough.
/// local == true: decoded-scratch window. `offsets` has end-begin+1
/// entries, indexed by j - begin, and its values index `neighbors`
/// directly (offsets[0] need not be 0: scratch starts at the covering
/// compression-group boundary). Valid until the *next* acquire of the
/// same slot, i.e. through this shard's compute.
struct ShardWindow {
  const graph::EdgeIndex* offsets = nullptr;
  const graph::NodeId* neighbors = nullptr;
  graph::NodeId begin = 0;
  graph::NodeId end = 0;
  bool local = false;
};

class ShardPipeline {
 public:
  /// `g` and `mapped` (nullable for in-memory graphs) must outlive the
  /// pipeline. A headless `g` (compressed container) requires `mapped`.
  /// The worker thread starts — and shard 0's fill is posted — only for
  /// kPrefetch with actual staging work (a mapping or a decode).
  ShardPipeline(const graph::Graph& g, graph::ShardPlan plan,
                const graph::sharded::MappedGraph* mapped, IoMode mode);
  ~ShardPipeline();

  ShardPipeline(const ShardPipeline&) = delete;
  ShardPipeline& operator=(const ShardPipeline&) = delete;

  /// Hands shard `s`'s window to compute. Shards must be acquired in
  /// ascending order within a sweep. Blocks until the window is staged
  /// (counting the stall), posts shard s+1 to the worker, and releases
  /// the pages behind shard s-1. Hits the "shard.window" fault site.
  /// Rethrows any staging error (e.g. a corrupt ADJC group) here, on the
  /// compute thread.
  [[nodiscard]] ShardWindow acquire(std::uint32_t s);

  /// Ends a sweep: releases the last shard's pages and posts shard 0 so
  /// the next sweep's first window stages behind the caller's between-
  /// sweep work (TVD reduction, prescale, Lanczos vector ops).
  void finish_sweep();

  [[nodiscard]] IoMode mode() const noexcept { return mode_; }
  /// True when windows are decoded (compressed container): acquire
  /// returns local windows and the engine must use the rebased kernel
  /// call; also implies the frontier optimization is unavailable.
  [[nodiscard]] bool decodes() const noexcept { return compressed_; }
  /// Bytes of decode scratch held across both slots (0 uncompressed).
  [[nodiscard]] std::size_t scratch_bytes() const noexcept { return scratch_bytes_; }

 private:
  struct Slot {
    std::vector<graph::EdgeIndex> offsets;       // window-local, rows+1
    util::aligned_vector<graph::NodeId> values;  // decoded neighbor ids
    graph::NodeId begin = 0;
    graph::NodeId end = 0;
  };

  void stage(std::uint32_t s);  // fault in and/or decode shard s
  void decode_window(std::uint32_t s, Slot& slot);
  void worker_main();
  [[nodiscard]] ShardWindow window_for(std::uint32_t s) const noexcept;

  const graph::Graph* graph_;
  const graph::sharded::MappedGraph* mapped_;
  graph::ShardPlan plan_;
  IoMode mode_;
  bool compressed_ = false;
  bool threaded_ = false;
  std::size_t scratch_bytes_ = 0;
  Slot slots_[2];

  // Worker handshake (guarded by mutex_). The sweep is sequential, so at
  // most one fill is outstanding: request_ is the shard the worker should
  // stage next, staging_ the one it is staging, ready_ the one staged and
  // not yet superseded (-1 each when none).
  std::thread worker_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::int64_t request_ = -1;
  std::int64_t staging_ = -1;
  std::int64_t ready_ = -1;
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace socmix::linalg
