// ADJC: the compressed-adjacency section of the `.smxg` container.
//
// Neighbor lists are sorted ascending (a Graph invariant), so each row is
// stored as its first id raw followed by strictly-positive gaps, and the
// resulting value stream is stream-vbyte coded: 2-bit length codes packed
// four-per-control-byte, then the 1..4 little-endian data bytes per value.
// Values are grouped by fixed row blocks (kGroupRows), each group's stream
// located by a trailing group index, so the writer streams one group at a
// time and the decoder re-validates every group on its own.
//
// Payload layout (all inside one CRC-checked section):
//
//   [ 16 B head ]       u32 group_rows, u32 reserved, u64 num_values
//   [ group streams ]   group k: ceil(v_k/4) ctrl bytes, then data bytes
//   [ >= 16 B slack ]   zero padding; lets a SIMD decoder issue full
//                       16-byte loads at the tail of any group
//   [ group index ]     (num_groups + 1) x u64 payload-relative stream
//                       offsets, 8-aligned; entry[num_groups] = streams end
//
// The index sits at the *end* so the writer can stream groups through an
// incremental CRC without buffering the whole payload; the reader takes
// the head and the index first, then streams the groups in order. Value
// counts per group are not stored: they are re-derived from the OFFS
// section, which keeps ADJC pure compression — no structural authority.
// Decoding reconstructs the exact neighbor ids (integers, no rounding), so
// the CSR a pack is decoded into when it is opened is bit-identical to the
// graph that was packed; see DESIGN.md "Packs".
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace socmix::graph::sharded::adjc {

/// Rows per compression group. 256 rows keeps the per-group index tiny
/// (16 B/group of overhead on million-node graphs).
inline constexpr std::uint32_t kGroupRows = 256;
inline constexpr std::size_t kHeadBytes = 16;
/// Zero bytes after the last group stream, inside the CRC'd payload, so a
/// vectorized decoder may read a full 16-byte lane at any data position.
inline constexpr std::size_t kSlackBytes = 16;

[[nodiscard]] constexpr std::uint64_t num_groups(std::uint64_t num_nodes,
                                                 std::uint32_t group_rows) noexcept {
  return group_rows == 0 ? 0 : (num_nodes + group_rows - 1) / group_rows;
}

/// Encodes rows [row_begin, row_end) of a CSR as one group stream (ctrl
/// bytes then data bytes), appending to `out`. Returns bytes appended.
std::size_t encode_group(std::span<const EdgeIndex> offsets, const NodeId* neighbors,
                         NodeId row_begin, NodeId row_end,
                         std::vector<std::uint8_t>& out);

/// The validated geometry of an ADJC payload: its head's fields and its
/// group index. The reader takes both before any group stream, so the
/// streams can then be read, checked and decoded in payload order, a few
/// groups at a time.
struct AdjcLayout {
  std::uint64_t bytes = 0;  ///< section payload size
  std::uint32_t group_rows = 0;
  std::uint64_t num_groups = 0;
  /// Payload-relative byte offsets of each group stream; num_groups + 1
  /// entries, the last marking the end of the final stream. Sized by
  /// parse_adjc_head, filled from the payload's last index_bytes() bytes.
  std::vector<std::uint64_t> group_offsets;

  [[nodiscard]] std::uint64_t index_bytes() const noexcept { return (num_groups + 1) * 8; }
  [[nodiscard]] std::uint64_t index_offset() const noexcept { return bytes - index_bytes(); }
};

/// Validates an ADJC payload's 16-byte head (`head`; zero past `bytes`
/// when the payload is shorter) and its geometry against the node and
/// value counts the header committed to, and sizes out.group_offsets for
/// the index. Returns an empty string on success, otherwise the defect
/// (the loader turns it into a fail-closed rejection).
[[nodiscard]] std::string parse_adjc_head(const std::uint8_t* head, std::uint64_t bytes,
                                          std::uint64_t num_nodes, std::uint64_t num_values,
                                          AdjcLayout& out);

/// Validates layout.group_offsets once the index is read: anchored at the
/// head, monotone, and confined to the stream region with the slack after
/// it, so no stream extent it names leaves the payload.
[[nodiscard]] std::string check_group_index(const AdjcLayout& layout);

/// Decodes groups [g_begin, g_end) of a validated layout into `out` (the
/// CSR position of row g_begin * group_rows), re-deriving each group's
/// value count from the validated row `offsets`. `streams` holds the
/// payload from group_offsets[g_begin] through group_offsets[g_end], with
/// kSlackBytes readable bytes after it for the vector decoder's 16-byte
/// loads. Fails closed on any stream the ids cannot come from, even under
/// a matching section CRC: the coded lengths are summed before
/// decoding and must consume the group's bytes exactly (which also bounds
/// the vector decoder's reads), and each row is undeltaed in u64 so a
/// corrupt gap cannot wrap, with every id checked against the node count.
/// Returns an empty string on success, otherwise the defect.
[[nodiscard]] std::string decode_groups(const AdjcLayout& layout, std::uint64_t g_begin,
                                        std::uint64_t g_end, const std::uint8_t* streams,
                                        std::span<const EdgeIndex> offsets, NodeId* out);

}  // namespace socmix::graph::sharded::adjc
