// Versioned, CRC-checked binary snapshots with crash-safe publication.
//
// Frame layout (all integers little-endian):
//
//   offset size  field
//   0      4     magic "SMXS"
//   4      4     u32 format version (kSnapshotVersion)
//   8      8     u64 fingerprint — hash of everything that must match for
//                the payload to be reusable (graph, config, RNG seed, code
//                constants); a mismatch means "valid file, different run"
//   16     8     u64 payload size in bytes
//   24     n     payload
//   24+n   4     u32 CRC-32 over bytes [4, 24+n) — version, fingerprint,
//                size, and payload; magic is excluded so a bad magic is
//                reported as such rather than as a CRC failure
//
// Publication protocol (write_snapshot):
//   1. write the full frame to <path>.tmp and flush,
//   2. hard-link the current <path> (if any) to <path>.prev — the
//      last-good fallback survives even a torn step 3,
//   3. std::filesystem::rename(<path>.tmp, <path>) — atomic on POSIX, so
//      <path> is always either the old or the new complete frame.
//
// Readers (load_snapshot) verify magic, version, fingerprint, and CRC and
// classify every failure; load_snapshot_with_fallback falls back from
// <path> to <path>.prev, counting discarded candidates in the metrics
// registry (resilience.corrupt_discarded / resilience.stale_discarded).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace socmix::resilience {

// Version history: 1 = original frame; 2 = BlockCheckpoint payloads gained
// a leading u64 execution-context word (then the vertex reorder mode; now
// the words retired knobs folded at their defaults), so files written
// before it must be rejected as kBadVersion rather than misparsed.
inline constexpr std::uint32_t kSnapshotVersion = 2;

enum class SnapshotStatus {
  kOk,
  kMissing,          ///< file does not exist / cannot be opened
  kTruncated,        ///< shorter than its header claims
  kBadMagic,         ///< not a snapshot file at all
  kBadVersion,       ///< a different (past or future) format version
  kBadCrc,           ///< bit-level corruption of header or payload
  kBadFingerprint,   ///< intact file from an incompatible run/config
};

/// Human-readable status name ("ok", "missing", "truncated", ...).
[[nodiscard]] std::string_view snapshot_status_name(SnapshotStatus status) noexcept;

struct LoadedSnapshot {
  SnapshotStatus status = SnapshotStatus::kMissing;
  std::vector<std::byte> payload;  ///< valid only when status == kOk
  std::string path;                ///< the file the payload came from
};

/// Writes `payload` as a complete frame via the temp-write / hard-link /
/// atomic-rename protocol above. Throws std::runtime_error when the
/// filesystem refuses (unwritable dir, disk full on flush). Contains the
/// `checkpoint.write` and `checkpoint.rename` fault sites.
void write_snapshot(const std::string& path, std::uint64_t fingerprint,
                    std::span<const std::byte> payload);

/// Reads and verifies one frame; never throws on bad content (only on
/// e.g. allocation failure), returning the classification instead.
[[nodiscard]] LoadedSnapshot load_snapshot(const std::string& path,
                                           std::uint64_t expected_fingerprint);

/// load_snapshot(path), falling back to path + ".prev" when the primary is
/// anything but kOk. Discarded corrupt/truncated candidates increment
/// resilience.corrupt_discarded; fingerprint/version mismatches increment
/// resilience.stale_discarded. Returns the first kOk candidate, or the
/// primary's failure when neither loads.
[[nodiscard]] LoadedSnapshot load_snapshot_with_fallback(const std::string& path,
                                                         std::uint64_t expected_fingerprint);

// --------------------------------------------------- payload (de)serializing --

/// Append-only little-endian encoder for snapshot payloads.
class ByteWriter {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Doubles are stored as their IEEE-754 bit pattern: a round trip is
  /// bit-exact, which the resume bit-identity contract depends on.
  void f64(double v);
  void bytes(std::span<const std::byte> data);

  [[nodiscard]] std::span<const std::byte> data() const noexcept { return buffer_; }
  [[nodiscard]] std::vector<std::byte> take() noexcept { return std::move(buffer_); }

 private:
  std::vector<std::byte> buffer_;
};

/// Bounds-checked decoder; `ok()` turns false on any over-read and stays
/// false (reads after a failure return zeros).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint32_t u32() noexcept;
  [[nodiscard]] std::uint64_t u64() noexcept;
  [[nodiscard]] double f64() noexcept;

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  [[nodiscard]] bool take(std::span<std::byte> out) noexcept;

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace socmix::resilience
