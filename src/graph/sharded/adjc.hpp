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
// incremental CRC without buffering the whole payload. Value counts per
// group are not stored: they are re-derived from the OFFS section, which
// keeps ADJC pure compression — no structural authority. Decoding
// reconstructs the exact neighbor ids (integers, no rounding), so the CSR
// a compressed pack is decoded into when it is opened is bit-identical to
// an uncompressed ADJ4 payload; see DESIGN.md "Packs".
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

/// Parsed, bounds-validated view over a mapped ADJC payload.
struct AdjcView {
  const std::uint8_t* base = nullptr;  ///< payload start (section base)
  std::uint64_t bytes = 0;             ///< section payload size
  std::uint32_t group_rows = 0;
  std::uint64_t num_values = 0;
  std::uint64_t num_groups = 0;
  /// Payload-relative byte offsets of each group stream; num_groups + 1
  /// entries, the last marking the end of the final stream.
  const std::uint64_t* group_offsets = nullptr;

};

/// Validates an ADJC payload's head, geometry, and group index against the
/// node/half-edge counts the header committed to. Fills `out` and returns
/// an empty string on success; otherwise returns the defect (the loader
/// turns it into a fail-closed rejection).
[[nodiscard]] std::string parse_adjc(const std::uint8_t* payload, std::uint64_t bytes,
                                     std::uint64_t num_nodes,
                                     std::uint64_t num_values, AdjcView& out);

/// Decodes every group of a parsed payload into `out` (view.num_values
/// ids, in CSR order), re-deriving each group's value count from the
/// validated row `offsets`. Fails closed on any stream the ids cannot come
/// from, whether or not the section CRC was checked: the coded lengths are
/// summed before decoding and must consume the group's bytes exactly (which
/// also bounds the vector decoder's 16-byte reads), and each row is
/// undeltaed in u64 so a corrupt gap cannot wrap, with every id checked
/// against the node count. Returns an empty string on success, otherwise
/// the defect.
[[nodiscard]] std::string decode_adjc(const AdjcView& view,
                                      std::span<const EdgeIndex> offsets, NodeId* out);

}  // namespace socmix::graph::sharded::adjc
