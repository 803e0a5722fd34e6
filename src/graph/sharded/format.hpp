// The `.smxg` binary container: a packed CSR.
//
// Layout (all integers little-endian; payloads 64-byte aligned):
//
//   [ 64 B header ]
//   [ 32 B x num_sections section table ]
//   [ OFFS payload ]  (n+1) x u64   CSR row offsets
//   [ ADJC payload ]  stream-vbyte delta-coded neighbors (sharded/adjc.hpp)
//   [ SHRD payload ]  (S+1) x u64   shard row bounds (written, never read)
//
// Every pack is format version 2, whose adjacency is the compressed ADJC
// section. Version 1 stored it as a raw u32 array (ADJ4); a reader
// refuses such a file by name, so an old pack is repacked with
// graph_pack, never half-read.
//
// Header (byte offsets):
//    0  u32  magic 'SMXG'
//    4  u32  endian tag 0x01020304 (a byte-swapped reader sees 0x04030201)
//    8  u32  format version (kVersion)
//   12  u32  num_sections
//   16  u64  num_nodes
//   24  u64  num_half_edges
//   32  u32  num_shards (the SHRD section's shard count)
//   36  u32  reserved
//   40  u64  file_bytes (total file size the header commits to)
//   48  u64  graph structural fingerprint
//   56  u32  reserved
//   60  u32  CRC-32 of header bytes [0, 60)
//
// Section table entry: u32 id, u32 payload CRC-32, u64 file offset,
// u64 payload bytes, u64 reserved.
//
// Every field a reader indexes by is validated before use and the
// payloads are CRC-checked, so a truncated, bit-rotted, version-skewed or
// foreign-endian file fails closed (graph.io.smxg_rejected) instead of
// handing garbage to the kernels. See sharded/mapped_graph.hpp for the
// reader, which skips SHRD: the format keeps the section so packs written
// before and after the engines stopped sharding stay interchangeable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "graph/sharded/plan.hpp"

namespace socmix::graph::sharded {

inline constexpr std::uint32_t kMagic = 0x47584D53;      // 'S','M','X','G'
inline constexpr std::uint32_t kEndianTag = 0x01020304;  // reads back swapped on BE
inline constexpr std::uint32_t kVersion = 2;
/// The retired raw-adjacency (ADJ4) format, refused by name.
inline constexpr std::uint32_t kVersionRawAdjacency = 1;
inline constexpr std::size_t kHeaderBytes = 64;
inline constexpr std::size_t kSectionEntryBytes = 32;
inline constexpr std::size_t kPayloadAlign = 64;

// Section ids ('OFFS', 'ADJC', 'SHRD' as little-endian fourccs).
inline constexpr std::uint32_t kSectionOffsets = 0x5346464F;
inline constexpr std::uint32_t kSectionAdjacencyCompressed = 0x434A4441;
inline constexpr std::uint32_t kSectionShards = 0x44524853;

/// The pack option the writer once took. It is retired: every pack is
/// written compressed. perfbench/ still sets `compress`; delete the struct
/// with the next benchmark change. Nothing reads it.
struct WriteOptions {
  /// Retired `graph_pack --compress`.
  bool compress = false;
};

/// Writes `g` as a `.smxg` file (OFFS + ADJC + a one-shard SHRD section;
/// temp file + atomic rename). Payloads are streamed through incremental
/// CRCs and the header/section table patched in afterwards, so the
/// writer's extra memory stays O(one compression group) regardless of
/// graph size. Throws std::runtime_error on I/O failure.
void write_smxg_file(const std::string& path, const Graph& g);

/// The same with `plan`'s bounds as the SHRD section, which no reader
/// uses; `plan.dim()` must equal `g.num_nodes()`. perfbench/ still writes
/// its plan through this overload; delete it, with WriteOptions, with the
/// next benchmark change.
void write_smxg_file(const std::string& path, const Graph& g, const ShardPlan& plan,
                     const WriteOptions& options);

}  // namespace socmix::graph::sharded
