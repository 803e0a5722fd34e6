// Block-granular progress checkpointing for long sweeps.
//
// The expensive measurements in this repo share one shape: a fixed number
// of independent work units ("blocks" — 32-source batches in
// measure_sampled_mixing, route-length points in the SybilLimit sweep),
// each producing a vector of doubles, distributed over the thread pool.
// BlockCheckpoint persists the completed subset of that sweep as one
// resilience snapshot (snapshot.hpp) so an interrupted run resumes by
// skipping finished blocks and replaying their stored payloads — which,
// because blocks are independent and payloads round-trip bit-exactly,
// makes the resumed result bit-identical to an uninterrupted run for any
// thread count.
//
// Payload layout (inside the snapshot frame):
//   u64 context                       execution-context tag (see ctor)
//   u64 num_blocks                    total blocks in the sweep
//   u64 completed                     number of (index, payload) records
//   repeated: u64 block_index, u64 len, len * f64
//
// Thread safety: record() may be called concurrently from pool workers;
// the internal mutex serializes bookkeeping, and whichever record() call
// crosses the interval threshold writes the snapshot while holding it
// (other workers keep computing; at most one blocks on I/O).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace socmix::resilience {

struct CheckpointOptions {
  /// Directory for snapshot files; empty disables checkpointing entirely.
  std::string dir;
  /// File stem inside `dir`; callers derive it from the measurement name
  /// so concurrent sweeps in one process do not clobber each other.
  /// Empty falls back to "snapshot".
  std::string name;
  /// Write a snapshot every `interval` newly completed blocks. The final
  /// snapshot on completion is always written regardless.
  std::size_t interval = 8;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

class BlockCheckpoint {
 public:
  /// `fingerprint` must cover everything the payloads depend on (graph,
  /// sources, step budget, parameters, seed); restore() only accepts
  /// snapshots carrying the identical value. `context` tags the execution
  /// environment the payloads were computed under (e.g. the words
  /// retired knobs folded at their defaults, hash-combined by the caller)
  /// — it is recorded in every frame, and a frame whose context differs
  /// from this run's is
  /// classified *stale* (counted under resilience.stale_discarded) and
  /// recomputed rather than replayed.
  BlockCheckpoint(CheckpointOptions options, std::uint64_t fingerprint,
                  std::size_t num_blocks, std::uint64_t context = 0);

  [[nodiscard]] bool enabled() const noexcept { return options_.enabled(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  [[nodiscard]] std::uint64_t context() const noexcept { return context_; }

  /// Loads the best available snapshot (current, then .prev) and keeps its
  /// completed blocks. Corrupt/stale candidates are counted and ignored —
  /// a failed restore is a clean start, never an error. Returns the number
  /// of blocks restored. Call once, before the sweep.
  std::size_t restore();

  /// True when `block` was restored (its payload need not be recomputed).
  [[nodiscard]] bool is_restored(std::size_t block) const;

  /// Restored payload of `block` (empty vector when !is_restored).
  [[nodiscard]] const std::vector<double>& restored_payload(std::size_t block) const;

  /// Records a newly computed block. Thread-safe. Writes a snapshot when
  /// `interval` new blocks accumulated since the last write. No-op when
  /// disabled (the payload is discarded — callers keep their own copy).
  void record(std::size_t block, std::vector<double> payload);

  /// Unconditional final snapshot containing every completed block; call
  /// after the sweep. The file is left in place so an identical re-run
  /// short-circuits to a full restore.
  void finalize();

 private:
  void write_locked();

  CheckpointOptions options_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t context_ = 0;
  std::size_t num_blocks_ = 0;
  std::string path_;

  std::mutex mutex_;
  std::unordered_map<std::size_t, std::vector<double>> completed_;
  std::size_t restored_count_ = 0;
  std::size_t since_last_write_ = 0;
  const std::vector<double> empty_;
};

}  // namespace socmix::resilience
