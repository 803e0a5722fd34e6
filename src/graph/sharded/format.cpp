#include "graph/sharded/format.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "graph/sharded/adjc.hpp"
#include "linalg/simd/kernels.hpp"
#include "util/checksum.hpp"

namespace socmix::graph::sharded {

namespace {

void store_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

void store_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

[[nodiscard]] constexpr std::uint64_t align_up(std::uint64_t v) {
  return (v + kPayloadAlign - 1) & ~std::uint64_t{kPayloadAlign - 1};
}

template <class T>
[[nodiscard]] std::span<const std::byte> bytes_of(std::span<const T> data) {
  return {reinterpret_cast<const std::byte*>(data.data()), data.size_bytes()};
}

struct SectionMeta {
  std::uint32_t id = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

/// Writes the container with `bounds64` (ascending row bounds, widened
/// to u64 so the payload layout is NodeId-width independent) as its SHRD
/// section.
void write_pack(const std::string& path, const Graph& g,
                const std::vector<std::uint64_t>& bounds64, const WriteOptions& options) {
  // The payload images are the in-memory arrays, so the writer requires a
  // little-endian host (every deployment target; the header's endian tag
  // protects readers either way).
  if constexpr (std::endian::native != std::endian::little) {
    throw std::runtime_error{"write_smxg_file: big-endian hosts are unsupported"};
  }

  constexpr std::uint32_t kNumSections = 3;
  const std::uint64_t head_bytes = kHeaderBytes + kNumSections * kSectionEntryBytes;
  SectionMeta metas[kNumSections];

  const std::string tmp = path + ".tmp";
  std::uint64_t file_bytes = 0;
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw std::runtime_error{"write_smxg_file: cannot open " + tmp};
    std::uint64_t cursor = 0;
    const auto put = [&](const void* p, std::size_t n) {
      out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
      cursor += n;
    };
    const auto pad_to = [&](std::uint64_t target) {
      static constexpr char zeros[kPayloadAlign] = {};
      while (cursor < target) {
        put(zeros, static_cast<std::size_t>(
                       std::min<std::uint64_t>(sizeof zeros, target - cursor)));
      }
    };
    // The header + section table slot is zero-filled now and patched once
    // every payload size and CRC is known; payloads stream straight to disk.
    pad_to(head_bytes);

    // Section CRCs run on the dispatched tier's kernel (util::crc32's value
    // on every tier).
    const linalg::simd::Crc32UpdateFn crc32_update = linalg::simd::dispatch().crc32_update;
    const auto plain_section = [&](std::uint32_t id, std::span<const std::byte> payload) {
      SectionMeta m;
      m.id = id;
      pad_to(align_up(cursor));
      m.offset = cursor;
      m.bytes = payload.size_bytes();
      m.crc = util::crc32_final(crc32_update(util::kCrc32Init, payload));
      put(payload.data(), payload.size_bytes());
      return m;
    };

    metas[0] = plain_section(kSectionOffsets, bytes_of(g.offsets()));
    if (!options.compress) {
      metas[1] = plain_section(kSectionAdjacency, bytes_of(g.raw_neighbors()));
    } else {
      // ADJC: head, group streams, slack, then the group index — written in
      // that order through one incremental CRC, buffering one group at a
      // time (layout contract in adjc.hpp).
      SectionMeta m;
      m.id = kSectionAdjacencyCompressed;
      pad_to(align_up(cursor));
      m.offset = cursor;
      std::uint32_t crc = util::kCrc32Init;
      const auto put_crc = [&](const void* p, std::size_t n) {
        crc = crc32_update(crc, {static_cast<const std::byte*>(p), n});
        put(p, n);
      };
      std::byte adjc_head[adjc::kHeadBytes] = {};
      store_u32(adjc_head + 0, adjc::kGroupRows);
      store_u64(adjc_head + 8, g.num_half_edges());
      put_crc(adjc_head, sizeof adjc_head);
      const std::uint64_t n = g.num_nodes();
      const std::uint64_t groups = adjc::num_groups(n, adjc::kGroupRows);
      std::vector<std::uint64_t> index;
      index.reserve(static_cast<std::size_t>(groups) + 1);
      std::uint64_t rel = adjc::kHeadBytes;
      std::vector<std::uint8_t> buf;
      for (std::uint64_t k = 0; k < groups; ++k) {
        index.push_back(rel);
        const NodeId lo = static_cast<NodeId>(k * adjc::kGroupRows);
        const NodeId hi = static_cast<NodeId>(
            std::min<std::uint64_t>(n, (k + 1) * adjc::kGroupRows));
        buf.clear();
        rel += adjc::encode_group(g.offsets(), g.raw_neighbors().data(), lo, hi, buf);
        put_crc(buf.data(), buf.size());
      }
      index.push_back(rel);
      const std::uint64_t index_rel = (rel + adjc::kSlackBytes + 7) & ~std::uint64_t{7};
      const std::vector<std::uint8_t> slack(static_cast<std::size_t>(index_rel - rel), 0);
      put_crc(slack.data(), slack.size());
      put_crc(index.data(), index.size() * sizeof(std::uint64_t));
      m.bytes = index_rel + index.size() * sizeof(std::uint64_t);
      m.crc = util::crc32_final(crc);
      metas[1] = m;
    }
    metas[2] =
        plain_section(kSectionShards, bytes_of(std::span<const std::uint64_t>{bounds64}));

    pad_to(align_up(cursor));
    file_bytes = cursor;

    std::vector<std::byte> head(static_cast<std::size_t>(head_bytes), std::byte{0});
    store_u32(head.data() + 0, kMagic);
    store_u32(head.data() + 4, kEndianTag);
    store_u32(head.data() + 8, options.compress ? kVersionCompressed : kVersion);
    store_u32(head.data() + 12, kNumSections);
    store_u64(head.data() + 16, g.num_nodes());
    store_u64(head.data() + 24, g.num_half_edges());
    store_u32(head.data() + 32, static_cast<std::uint32_t>(bounds64.size() - 1));
    store_u64(head.data() + 40, file_bytes);
    store_u64(head.data() + 48, structural_fingerprint(g));
    store_u32(head.data() + 60,
              util::crc32(std::span<const std::byte>{head.data(), 60}));
    for (std::uint32_t i = 0; i < kNumSections; ++i) {
      std::byte* entry = head.data() + kHeaderBytes + i * kSectionEntryBytes;
      store_u32(entry + 0, metas[i].id);
      store_u32(entry + 4, metas[i].crc);
      store_u64(entry + 8, metas[i].offset);
      store_u64(entry + 16, metas[i].bytes);
    }
    out.seekp(0);
    out.write(reinterpret_cast<const char*>(head.data()),
              static_cast<std::streamsize>(head.size()));
    if (!out) throw std::runtime_error{"write_smxg_file: write failed for " + tmp};
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error{"write_smxg_file: cannot rename into " + path};
  }
}

}  // namespace

void write_smxg_file(const std::string& path, const Graph& g,
                     const WriteOptions& options) {
  write_pack(path, g, {0, g.num_nodes()}, options);
}

void write_smxg_file(const std::string& path, const Graph& g, const ShardPlan& plan,
                     const WriteOptions& options) {
  if (plan.dim() != g.num_nodes() || plan.num_shards() == 0) {
    throw std::runtime_error{"write_smxg_file: shard plan does not cover the graph"};
  }
  write_pack(path, g, {plan.bounds.begin(), plan.bounds.end()}, options);
}

}  // namespace socmix::graph::sharded
