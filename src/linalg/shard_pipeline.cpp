#include "linalg/shard_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "linalg/simd/kernels.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"

namespace socmix::linalg {

namespace {

namespace adjc = graph::sharded::adjc;

[[noreturn]] void corrupt(const char* what) {
  // Decode-time fail-closed: reachable when load-time CRC verification
  // was skipped (Options{verify = false}) yet the stream is damaged.
  SOCMIX_COUNTER_ADD("graph.io.smxg_rejected", 1);
  throw std::runtime_error{std::string{"smxg: corrupt ADJC "} + what};
}

}  // namespace

ShardPipeline::ShardPipeline(const graph::Graph& g, graph::ShardPlan plan,
                             const graph::sharded::MappedGraph* mapped,
                             unsigned hardware_threads)
    : graph_(&g), mapped_(mapped), plan_(std::move(plan)) {
  compressed_ = g.headless();
  if (compressed_ && (mapped_ == nullptr || !mapped_->compressed())) {
    throw std::invalid_argument{
        "ShardPipeline: a headless graph needs its compressed MappedGraph"};
  }
  if (compressed_) {
    // Size both scratch slots for the worst shard now, so staging never
    // allocates: the largest group-aligned value span and row count any
    // shard's window covers.
    const auto& view = mapped_->adjc_view();
    const auto offsets = graph_->offsets();
    const graph::NodeId n = graph_->num_nodes();
    std::size_t max_values = 0;
    std::size_t max_rows = 0;
    for (std::uint32_t s = 0; s < plan_.num_shards(); ++s) {
      const graph::NodeId lo = plan_.begin(s);
      const graph::NodeId hi = plan_.end(s);
      if (lo >= hi) continue;
      const auto gs_row = static_cast<graph::NodeId>(view.group_of_row(lo) *
                                                     view.group_rows);
      const graph::NodeId ge_row = std::min<graph::NodeId>(
          n, static_cast<graph::NodeId>((view.group_of_row(hi - 1) + 1) *
                                        view.group_rows));
      max_values = std::max<std::size_t>(max_values, offsets[ge_row] - offsets[gs_row]);
      max_rows = std::max<std::size_t>(max_rows, hi - lo);
    }
    for (Slot& slot : slots_) {
      slot.values.reserve(max_values);
      slot.offsets.reserve(max_rows + 1);
    }
    scratch_bytes_ = 2 * (max_values * sizeof(graph::NodeId) +
                          (max_rows + 1) * sizeof(graph::EdgeIndex));
    SOCMIX_GAUGE_SET("markov.shard.scratch_bytes", scratch_bytes_);
  }
  // A worker only earns its keep when staging does real work: paging a
  // mapping in, or decoding. A plain in-memory graph stays synchronous,
  // and so does a single-hardware-thread host — there the "worker" could
  // only time-slice against compute, turning overlap into pure context-
  // switch overhead (kernel readahead still overlaps the device side).
  threaded_ = (mapped_ != nullptr || compressed_) && plan_.num_shards() > 0 &&
              hardware_threads > 1;
  if (threaded_) {
    request_ = 0;
    worker_ = std::thread{[this] { worker_main(); }};
  }
}

ShardPipeline::~ShardPipeline() {
  if (worker_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
}

void ShardPipeline::worker_main() {
  for (;;) {
    std::int64_t s = -1;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      cv_.wait(lock, [this] { return stop_ || request_ >= 0; });
      if (stop_) return;
      s = request_;
      request_ = -1;
      staging_ = s;
    }
    std::exception_ptr error;
    try {
      stage(static_cast<std::uint32_t>(s));
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      staging_ = -1;
      ready_ = s;
      if (error) error_ = error;
    }
    cv_.notify_all();
  }
}

void ShardPipeline::stage(std::uint32_t s) {
  SOCMIX_TRACE_SPAN("shard.prefetch_fill");
  const graph::NodeId lo = plan_.begin(s);
  const graph::NodeId hi = plan_.end(s);
  std::size_t bytes = 0;
  if (compressed_) {
    if (mapped_ != nullptr) {
      mapped_->advise_rows(lo, hi);
      bytes = mapped_->window_bytes(lo, hi);
    }
    // The decode streams every compressed byte of the window, so it *is*
    // the blocking read — no separate page touching needed.
    decode_window(s, slots_[s % 2]);
  } else if (mapped_ != nullptr) {
    bytes = mapped_->prefetch_rows(lo, hi);
  }
  SOCMIX_COUNTER_ADD("markov.shard.prefetch_issued", 1);
  SOCMIX_COUNTER_ADD("markov.shard.prefetch_bytes", bytes);
}

void ShardPipeline::decode_window(std::uint32_t s, Slot& slot) {
  const graph::NodeId lo = plan_.begin(s);
  const graph::NodeId hi = plan_.end(s);
  slot.begin = lo;
  slot.end = hi;
  const std::size_t rows = hi - lo;
  slot.offsets.resize(rows + 1);
  if (rows == 0) {
    slot.offsets[0] = 0;
    slot.values.clear();
    return;
  }
  const adjc::AdjcView& view = mapped_->adjc_view();
  const auto offsets = graph_->offsets();
  const graph::NodeId n = graph_->num_nodes();
  const std::uint64_t g_lo = view.group_of_row(lo);
  const std::uint64_t g_hi = view.group_of_row(hi - 1) + 1;
  const auto gs_row = static_cast<graph::NodeId>(g_lo * view.group_rows);
  const graph::EdgeIndex scratch_base = offsets[gs_row];
  for (std::size_t j = 0; j <= rows; ++j) {
    slot.offsets[j] = offsets[lo + j] - scratch_base;
  }

  const auto ge_row =
      std::min<graph::NodeId>(n, static_cast<graph::NodeId>(g_hi * view.group_rows));
  slot.values.resize(offsets[ge_row] - scratch_base);
  const simd::DecodeU32Fn decode = simd::dispatch().decode_u32;
  graph::NodeId* out = slot.values.data();
  for (std::uint64_t g = g_lo; g < g_hi; ++g) {
    const auto r0 = static_cast<graph::NodeId>(g * view.group_rows);
    const graph::NodeId r1 =
        std::min<graph::NodeId>(n, static_cast<graph::NodeId>(r0 + view.group_rows));
    const std::size_t count = offsets[r1] - offsets[r0];
    const std::uint64_t stream_lo = view.group_offsets[g];
    const std::uint64_t stream_hi = view.group_offsets[g + 1];
    const std::size_t ctrl_bytes = (count + 3) / 4;
    if (stream_hi - stream_lo < ctrl_bytes) corrupt("group stream (too short)");
    const std::uint8_t* ctrl = view.base + stream_lo;
    // Sum the coded lengths *before* decoding: the exact-byte-count check
    // both rejects corruption and bounds the vector decoder's 16-byte
    // overreads inside the payload (the slack only guarantees room past
    // an honest stream).
    std::uint64_t expect = 0;
    {
      std::size_t i = 0;
      for (; i + 4 <= count; i += 4) {
        const unsigned c = ctrl[i >> 2];
        expect += 4 + (c & 3u) + ((c >> 2) & 3u) + ((c >> 4) & 3u) + ((c >> 6) & 3u);
      }
      for (; i < count; ++i) {
        expect += ((ctrl[i >> 2] >> ((i & 3) * 2)) & 3u) + 1u;
      }
    }
    if (stream_lo + ctrl_bytes + expect != stream_hi) {
      corrupt("group stream (byte count mismatch)");
    }
    const std::size_t consumed = decode(ctrl, ctrl + ctrl_bytes, count, out);
    if (consumed != expect) corrupt("group stream (decoder disagreement)");
    // Undelta in u64 so a corrupt gap cannot wrap, and range-check every
    // reconstructed id — the decoded window upholds the same invariants
    // the loader's id scan enforces on ADJ4. Gaps are unsigned, so the
    // accumulator is monotone across a row: its final value bounds every
    // id stored above it, and one check per row rejects exactly the
    // streams a per-element check would.
    graph::NodeId* p = out;
    for (graph::NodeId r = r0; r < r1; ++r) {
      const std::size_t deg = offsets[r + 1] - offsets[r];
      if (deg == 0) continue;
      std::uint64_t acc = p[0];
      for (std::size_t e = 1; e < deg; ++e) {
        acc += p[e];
        p[e] = static_cast<graph::NodeId>(acc);
      }
      if (acc >= n) corrupt("stream (neighbor id out of range)");
      p += deg;
    }
    out += count;
  }
}

ShardWindow ShardPipeline::window_for(std::uint32_t s) const noexcept {
  ShardWindow w;
  w.begin = plan_.begin(s);
  w.end = plan_.end(s);
  if (compressed_) {
    const Slot& slot = slots_[s % 2];
    w.offsets = slot.offsets.data();
    w.neighbors = slot.values.data();
    w.local = true;
  } else {
    w.offsets = graph_->offsets().data();
    w.neighbors = graph_->raw_neighbors().data();
    w.local = false;
  }
  return w;
}

ShardWindow ShardPipeline::acquire(std::uint32_t s) {
  resilience::fault_point("shard.window");
  const std::uint32_t shards = plan_.num_shards();
  if (threaded_) {
    bool stalled = false;
    double stall_seconds = 0.0;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      const auto want = static_cast<std::int64_t>(s);
      // Resync after an interrupted sweep (injected fault, engine error):
      // if nobody is staging or has staged this shard, post it ourselves.
      if (ready_ != want && staging_ != want && request_ != want &&
          error_ == nullptr) {
        request_ = want;
        cv_.notify_all();
      }
      if (ready_ != want && error_ == nullptr) {
        stalled = true;
        SOCMIX_TRACE_SPAN("shard.prefetch_wait");
        const auto wait_start = std::chrono::steady_clock::now();
        cv_.wait(lock, [&] { return ready_ == want || error_ != nullptr; });
        stall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wait_start)
                            .count();
      }
      if (error_ != nullptr) {
        const std::exception_ptr error = error_;
        error_ = nullptr;
        std::rethrow_exception(error);
      }
      if (s + 1 < shards) {
        request_ = static_cast<std::int64_t>(s) + 1;
        cv_.notify_all();
      }
    }
    if (stalled) {
      SOCMIX_COUNTER_ADD("markov.shard.prefetch_stalls", 1);
      SOCMIX_TIME_OBSERVE("markov.shard.prefetch_stall_seconds", stall_seconds);
    }
  } else {
    // Inline staging (no staging work, or one hardware thread): advise
    // this window on the first shard, advise one ahead, and let the
    // compute thread take the faults (and the decode, when compressed).
    if (mapped_ != nullptr) {
      if (s == 0) mapped_->advise_rows(plan_.begin(0), plan_.end(0));
      if (s + 1 < shards) mapped_->advise_rows(plan_.begin(s + 1), plan_.end(s + 1));
    }
    if (compressed_) decode_window(s, slots_[s % 2]);
  }
  if (s > 0 && mapped_ != nullptr) {
    mapped_->release_rows(plan_.begin(s - 1), plan_.end(s - 1));
  }
  return window_for(s);
}

void ShardPipeline::finish_sweep() {
  const std::uint32_t shards = plan_.num_shards();
  if (shards == 0) return;
  if (mapped_ != nullptr) {
    mapped_->release_rows(plan_.begin(shards - 1), plan_.end(shards - 1));
  }
  if (threaded_) {
    // Stage the next sweep's first window now: it fills behind the
    // caller's between-sweep work (prescale, vector ops).
    const std::lock_guard<std::mutex> lock{mutex_};
    if (error_ == nullptr && ready_ != 0 && staging_ != 0) {
      request_ = 0;
      cv_.notify_all();
    }
    cv_.notify_all();
  }
}

}  // namespace socmix::linalg
