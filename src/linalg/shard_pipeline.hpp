// Double-buffered shard window pipeline for compressed packs: decode
// behind compute.
//
// The walk engines (markov::BatchedEvolver, linalg::WalkOperator) sweep
// a CSR one contiguous shard at a time. Over a compressed (ADJC)
// container a shard's adjacency exists only as coded blocks, so its
// window must be staged — advised in (madvise(WILLNEED)) and decoded —
// before the kernels can sweep it. Staging runs on one dedicated worker
// thread with two window slots: while compute sweeps shard k, the worker
// decodes shard k+1 into the other slot, and the window behind the sweep
// is released. The sweep only ever blocks when the worker falls behind,
// and that stall is measured: markov.shard.prefetch_stall_seconds /
// prefetch_stalls along with the shard.prefetch_wait / shard.prefetch_fill
// trace spans are the overlap evidence (DESIGN.md "Shard pipeline &
// compression").
//
// The pipeline chooses its staging from what it can observe, not from a
// flag: it starts the worker for a compressed container whenever the host
// has more than one hardware thread. Otherwise it stages inline on the
// compute thread — advising each window one shard ahead and decoding just
// before the shard computes — which is the only discipline a one-core
// host can run. An in-memory graph or a raw pack has nothing to stage:
// its windows pass the CSR arrays straight through. Either way the window
// handed to compute holds bit-identical neighbor ids in bit-identical
// order, so staging and compression never change a result bit and
// neither is folded into the checkpoint context.
//
// Compressed windows are decoded group-by-group into per-slot scratch and
// returned with `local == true`: `offsets` is then a window-local array
// (index row j - begin, values indexing `neighbors` directly) instead of
// the absolute CSR arrays. All decoding precedes all floating-point math
// of the shard, and the decoder re-validates every group (stream byte
// counts, id range) so a corrupt stream fails closed even when load-time
// CRC verification was skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "util/aligned.hpp"

namespace socmix::linalg {

/// One shard's adjacency, ready for the kernels.
///
/// local == false: `offsets`/`neighbors` are the graph's absolute CSR
/// arrays (row j of the shard is indexed as offsets[j], j in
/// [begin, end)) — the in-memory passthrough.
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
  /// `g` and `mapped` must outlive the pipeline. A headless `g` requires
  /// `mapped`, its compressed container; for any other graph `mapped` is
  /// ignored and windows pass the CSR arrays through. The worker thread
  /// starts — and shard 0's decode is posted — for a compressed container
  /// when `hardware_threads` > 1. `hardware_threads` is the host's; tests
  /// pass 1 to run the one-core inline staging on any host.
  ShardPipeline(const graph::Graph& g, graph::ShardPlan plan,
                const graph::sharded::MappedGraph* mapped,
                unsigned hardware_threads = std::thread::hardware_concurrency());
  ~ShardPipeline();

  ShardPipeline(const ShardPipeline&) = delete;
  ShardPipeline& operator=(const ShardPipeline&) = delete;

  /// Hands shard `s`'s window to compute. Shards must be acquired in
  /// ascending order within a sweep. For a compressed container, blocks
  /// until the window is decoded (counting the stall), posts shard s+1 to
  /// the worker, and releases the pages behind shard s-1. Hits the
  /// "shard.window" fault site.
  /// Rethrows any staging error (e.g. a corrupt ADJC group) here, on the
  /// compute thread.
  [[nodiscard]] ShardWindow acquire(std::uint32_t s);

  /// Ends a sweep: releases the last shard's pages and posts shard 0 so
  /// the next sweep's first window stages behind the caller's between-
  /// sweep work (TVD reduction, prescale, Lanczos vector ops).
  void finish_sweep();

  /// True when windows are decoded (compressed container): acquire
  /// returns local windows and the engine must use the rebased kernel
  /// call.
  [[nodiscard]] bool decodes() const noexcept { return mapped_ != nullptr; }
  /// Bytes of decode scratch held across both slots (0 uncompressed).
  [[nodiscard]] std::size_t scratch_bytes() const noexcept { return scratch_bytes_; }

 private:
  struct Slot {
    std::vector<graph::EdgeIndex> offsets;       // window-local, rows+1
    util::aligned_vector<graph::NodeId> values;  // decoded neighbor ids
    graph::NodeId begin = 0;
    graph::NodeId end = 0;
  };

  void stage(std::uint32_t s);  // advise and decode shard s on the worker
  void decode_window(std::uint32_t s, Slot& slot);
  void worker_main();
  [[nodiscard]] ShardWindow window_for(std::uint32_t s) const noexcept;

  const graph::Graph* graph_;
  /// The compressed container; null exactly when `g` is not headless.
  const graph::sharded::MappedGraph* mapped_;
  graph::ShardPlan plan_;
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
