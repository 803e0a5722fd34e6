#include "resilience/snapshot.hpp"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/checksum.hpp"

namespace socmix::resilience {

namespace {

constexpr char kMagic[4] = {'S', 'M', 'X', 'S'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;  // magic, version, fingerprint, size
constexpr std::size_t kFooterSize = 4;              // CRC-32

void put_le(std::vector<std::byte>& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

[[nodiscard]] std::uint64_t get_le(std::span<const std::byte> in, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(in[i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::string_view snapshot_status_name(SnapshotStatus status) noexcept {
  switch (status) {
    case SnapshotStatus::kOk: return "ok";
    case SnapshotStatus::kMissing: return "missing";
    case SnapshotStatus::kTruncated: return "truncated";
    case SnapshotStatus::kBadMagic: return "bad-magic";
    case SnapshotStatus::kBadVersion: return "bad-version";
    case SnapshotStatus::kBadCrc: return "bad-crc";
    case SnapshotStatus::kBadFingerprint: return "bad-fingerprint";
  }
  return "unknown";
}

void write_snapshot(const std::string& path, std::uint64_t fingerprint,
                    std::span<const std::byte> payload) {
  fault_point("checkpoint.write");

  // Assemble the whole frame in memory: snapshots are measurement progress
  // (MBs at paper scale), and one buffer keeps the CRC and the write simple.
  std::vector<std::byte> frame;
  frame.reserve(kHeaderSize + payload.size() + kFooterSize);
  for (const char c : kMagic) frame.push_back(static_cast<std::byte>(c));
  put_le(frame, kSnapshotVersion, 4);
  put_le(frame, fingerprint, 8);
  put_le(frame, payload.size(), 8);
  frame.insert(frame.end(), payload.begin(), payload.end());
  const std::uint32_t crc =
      util::crc32(std::span<const std::byte>{frame.data() + 4, frame.size() - 4});
  put_le(frame, crc, 4);

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out{tmp_path, std::ios::binary | std::ios::trunc};
    if (!out) throw std::runtime_error{"write_snapshot: cannot open " + tmp_path};
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    out.flush();
    if (!out) throw std::runtime_error{"write_snapshot: short write to " + tmp_path};
  }

  // Keep the previous good snapshot reachable as <path>.prev. A hard link
  // is atomic and free; if the filesystem refuses (or there is no previous
  // snapshot) the fallback chain is simply one link short.
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    const std::string prev_path = path + ".prev";
    std::filesystem::remove(prev_path, ec);
    std::filesystem::create_hard_link(path, prev_path, ec);
  }

  fault_point("checkpoint.rename");
  std::filesystem::rename(tmp_path, path);  // atomic publish
  SOCMIX_COUNTER_ADD("resilience.checkpoints_written", 1);
  SOCMIX_GAUGE_SET("resilience.checkpoint_bytes", frame.size());
}

LoadedSnapshot load_snapshot(const std::string& path, std::uint64_t expected_fingerprint) {
  LoadedSnapshot out;
  out.path = path;

  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) return out;  // kMissing
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> frame(size > 0 ? static_cast<std::size_t>(size) : 0);
  if (!frame.empty()) {
    in.read(reinterpret_cast<char*>(frame.data()), size);
    if (!in) {
      out.status = SnapshotStatus::kTruncated;
      return out;
    }
  }
  if (frame.size() < kHeaderSize + kFooterSize) {
    out.status = frame.size() < 4 || std::memcmp(frame.data(), kMagic, 4) != 0
                     ? SnapshotStatus::kBadMagic
                     : SnapshotStatus::kTruncated;
    return out;
  }
  if (std::memcmp(frame.data(), kMagic, 4) != 0) {
    out.status = SnapshotStatus::kBadMagic;
    return out;
  }
  const auto version = static_cast<std::uint32_t>(get_le({frame.data() + 4, 4}, 4));
  if (version != kSnapshotVersion) {
    out.status = SnapshotStatus::kBadVersion;
    return out;
  }
  const std::uint64_t fingerprint = get_le({frame.data() + 8, 8}, 8);
  const std::uint64_t payload_size = get_le({frame.data() + 16, 8}, 8);
  if (payload_size != frame.size() - kHeaderSize - kFooterSize) {
    out.status = SnapshotStatus::kTruncated;
    return out;
  }
  const std::uint32_t stored_crc = static_cast<std::uint32_t>(
      get_le({frame.data() + frame.size() - kFooterSize, 4}, 4));
  const std::uint32_t crc = util::crc32(
      std::span<const std::byte>{frame.data() + 4, frame.size() - 4 - kFooterSize});
  if (crc != stored_crc) {
    out.status = SnapshotStatus::kBadCrc;
    return out;
  }
  if (fingerprint != expected_fingerprint) {
    out.status = SnapshotStatus::kBadFingerprint;
    return out;
  }
  out.status = SnapshotStatus::kOk;
  out.payload.assign(frame.begin() + kHeaderSize, frame.end() - kFooterSize);
  return out;
}

LoadedSnapshot load_snapshot_with_fallback(const std::string& path,
                                           std::uint64_t expected_fingerprint) {
  LoadedSnapshot primary = load_snapshot(path, expected_fingerprint);
  if (primary.status == SnapshotStatus::kOk) return primary;

  const auto count_discard = [](SnapshotStatus status) {
    switch (status) {
      case SnapshotStatus::kTruncated:
      case SnapshotStatus::kBadMagic:
      case SnapshotStatus::kBadCrc:
        SOCMIX_COUNTER_ADD("resilience.corrupt_discarded", 1);
        break;
      case SnapshotStatus::kBadVersion:
      case SnapshotStatus::kBadFingerprint:
        SOCMIX_COUNTER_ADD("resilience.stale_discarded", 1);
        break;
      case SnapshotStatus::kOk:
      case SnapshotStatus::kMissing:
        break;
    }
  };
  count_discard(primary.status);

  LoadedSnapshot fallback = load_snapshot(path + ".prev", expected_fingerprint);
  if (fallback.status == SnapshotStatus::kOk) {
    SOCMIX_COUNTER_ADD("resilience.fallback_restores", 1);
    return fallback;
  }
  count_discard(fallback.status);
  return primary;  // report the primary's failure mode
}

// --------------------------------------------------- payload (de)serializing --

void ByteWriter::u32(std::uint32_t v) { put_le(buffer_, v, 4); }
void ByteWriter::u64(std::uint64_t v) { put_le(buffer_, v, 8); }
void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
void ByteWriter::bytes(std::span<const std::byte> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

bool ByteReader::take(std::span<std::byte> out) noexcept {
  if (!ok_ || data_.size() - pos_ < out.size()) {
    ok_ = false;
    std::memset(out.data(), 0, out.size());
    return false;
  }
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
  return true;
}

std::uint32_t ByteReader::u32() noexcept {
  std::byte buf[4];
  (void)take(buf);  // a short read zero-fills buf and clears ok()
  return static_cast<std::uint32_t>(get_le(buf, 4));
}

std::uint64_t ByteReader::u64() noexcept {
  std::byte buf[8];
  (void)take(buf);
  return get_le(buf, 8);
}

double ByteReader::f64() noexcept { return std::bit_cast<double>(u64()); }

}  // namespace socmix::resilience
