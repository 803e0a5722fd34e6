#include "graph/sharded/adjc.hpp"

#include <algorithm>
#include <cstring>

#include "linalg/simd/kernels.hpp"

namespace socmix::graph::sharded::adjc {

namespace {

[[nodiscard]] constexpr unsigned byte_len(std::uint32_t v) noexcept {
  return 1u + (v > 0xffu) + (v > 0xffffu) + (v > 0xffffffu);
}

[[nodiscard]] std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;  // validated little-endian container; LE hosts only (format.cpp)
}

[[nodiscard]] std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::size_t encode_group(std::span<const EdgeIndex> offsets, const NodeId* neighbors,
                         NodeId row_begin, NodeId row_end,
                         std::vector<std::uint8_t>& out) {
  const std::uint64_t values = offsets[row_end] - offsets[row_begin];
  const std::size_t start = out.size();
  const std::size_t ctrl_bytes = static_cast<std::size_t>((values + 3) / 4);
  out.resize(start + ctrl_bytes, 0);
  std::uint64_t i = 0;  // value index within the group
  for (NodeId r = row_begin; r < row_end; ++r) {
    NodeId prev = 0;
    for (EdgeIndex e = offsets[r]; e < offsets[r + 1]; ++e, ++i) {
      // First id of the row raw, the rest as strictly-positive gaps: rows
      // are sorted unique, so every value fits the 1..4-byte ladder.
      const std::uint32_t v = e == offsets[r] ? neighbors[e] : neighbors[e] - prev;
      prev = neighbors[e];
      const unsigned len = byte_len(v);
      out[start + static_cast<std::size_t>(i >> 2)] |=
          static_cast<std::uint8_t>((len - 1) << ((i & 3) * 2));
      for (unsigned b = 0; b < len; ++b) {
        out.push_back(static_cast<std::uint8_t>((v >> (8 * b)) & 0xff));
      }
    }
  }
  return out.size() - start;
}

std::string parse_adjc_head(const std::uint8_t* head, std::uint64_t bytes,
                            std::uint64_t num_nodes, std::uint64_t num_values,
                            AdjcLayout& out) {
  if (bytes < kHeadBytes + kSlackBytes) return "ADJC payload too small";
  const std::uint32_t group_rows = load_u32(head);
  if (group_rows == 0) return "ADJC group_rows is zero";
  if (load_u64(head + 8) != num_values) {
    return "ADJC value count disagrees with header";
  }
  const std::uint64_t groups = num_groups(num_nodes, group_rows);
  const std::uint64_t index_bytes = (groups + 1) * 8;
  if (bytes < kHeadBytes + kSlackBytes + index_bytes) {
    return "ADJC payload shorter than its group index";
  }
  if ((bytes - index_bytes) % 8 != 0) return "ADJC group index misaligned";
  out.bytes = bytes;
  out.group_rows = group_rows;
  out.num_groups = groups;
  out.group_offsets.resize(static_cast<std::size_t>(groups + 1));
  return {};
}

std::string check_group_index(const AdjcLayout& layout) {
  // The index must be monotone and confined to the stream region: a rotted
  // (CRC-evading) or hand-built index must never send the decoder outside
  // the payload.
  const std::vector<std::uint64_t>& index = layout.group_offsets;
  if (index[0] != kHeadBytes) return "ADJC group index does not start at the head";
  for (std::uint64_t k = 1; k <= layout.num_groups; ++k) {
    if (index[k] < index[k - 1]) return "ADJC group index not monotone";
  }
  if (index[layout.num_groups] + kSlackBytes > layout.index_offset()) {
    return "ADJC group streams overrun the index";
  }
  return {};
}

std::string decode_groups(const AdjcLayout& layout, std::uint64_t g_begin,
                          std::uint64_t g_end, const std::uint8_t* streams,
                          std::span<const EdgeIndex> offsets, NodeId* out) {
  const linalg::simd::DecodeU32Fn decode = linalg::simd::dispatch().decode_u32;
  const std::uint64_t n = offsets.size() - 1;
  const std::uint64_t base = layout.group_offsets[g_begin];
  for (std::uint64_t g = g_begin; g < g_end; ++g) {
    const std::uint64_t r0 = g * layout.group_rows;
    const std::uint64_t r1 = std::min<std::uint64_t>(n, r0 + layout.group_rows);
    const std::size_t count = offsets[r1] - offsets[r0];
    const std::uint64_t stream_lo = layout.group_offsets[g];
    const std::uint64_t stream_hi = layout.group_offsets[g + 1];
    const std::size_t ctrl_bytes = (count + 3) / 4;
    if (stream_hi - stream_lo < ctrl_bytes) {
      return "corrupt ADJC group stream (too short)";
    }
    const std::uint8_t* ctrl = streams + (stream_lo - base);
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
      return "corrupt ADJC group stream (byte count mismatch)";
    }
    if (decode(ctrl, ctrl + ctrl_bytes, count, out) != expect) {
      return "corrupt ADJC group stream (decoder disagreement)";
    }
    // Undelta in u64 so a corrupt gap cannot wrap, and range-check every
    // reconstructed id — the decoded CSR upholds the same invariant the
    // loader's id scan enforces on ADJ4. Gaps are unsigned, so the
    // accumulator is monotone across a row: its final value bounds every
    // id stored before it, and one check per row rejects exactly the
    // streams a per-element check would.
    NodeId* p = out;
    for (std::uint64_t r = r0; r < r1; ++r) {
      const std::size_t deg = offsets[r + 1] - offsets[r];
      if (deg == 0) continue;
      std::uint64_t acc = p[0];
      for (std::size_t e = 1; e < deg; ++e) {
        acc += p[e];
        p[e] = static_cast<NodeId>(acc);
      }
      if (acc >= n) return "corrupt ADJC stream (neighbor id out of range)";
      p += deg;
    }
    out += count;
  }
  return {};
}

}  // namespace socmix::graph::sharded::adjc
