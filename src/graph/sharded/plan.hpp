// Shard plans: what remains of the retired sharded engines.
//
// The engines sweep every graph as one resident CSR, so nothing at run
// time reads a shard plan or a shard policy. perfbench/ still resolves a
// shard count (resolve_shard_count) and builds plans (ShardPlan::single,
// ShardPlan::balanced) for the frozen benchmark's pack writer and its
// ShardedWalkOperator call; these names survive for it alone. Delete this
// header with the next benchmark change.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace socmix::graph {

/// The retired --sharded policy, as perfbench/ still spells it.
struct ShardPolicy {
  enum class Mode : std::uint8_t {
    kAuto = 0,   ///< one shard per kAutoShardBytes of CSR
    kOff = 1,    ///< one shard
    kFixed = 2,  ///< exactly `count` shards
  };

  static constexpr std::size_t kAutoShardBytes = std::size_t{64} << 20;
  static constexpr std::uint32_t kMaxShards = 1024;

  Mode mode = Mode::kAuto;
  /// Shard count for kFixed; ignored otherwise.
  std::uint32_t count = 0;
};

/// Shard count a policy resolves to for a CSR of `csr_bytes` over `n`
/// rows: `auto` sizes shards so that `resident_copies` of them stay
/// within 2 * kAutoShardBytes.
[[nodiscard]] std::uint32_t resolve_shard_count(const ShardPolicy& policy,
                                                std::size_t csr_bytes, NodeId n,
                                                std::uint32_t resident_copies = 2) noexcept;

/// A concrete partition of rows [0, n) into contiguous shards.
struct ShardPlan {
  /// num_shards()+1 ascending row bounds; bounds.front() == 0,
  /// bounds.back() == n. Individual shards may be empty on degenerate
  /// inputs (more shards than rows).
  std::vector<NodeId> bounds;

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return bounds.empty() ? 0 : static_cast<std::uint32_t>(bounds.size() - 1);
  }
  [[nodiscard]] NodeId begin(std::uint32_t s) const noexcept { return bounds[s]; }
  [[nodiscard]] NodeId end(std::uint32_t s) const noexcept { return bounds[s + 1]; }
  [[nodiscard]] NodeId dim() const noexcept { return bounds.empty() ? 0 : bounds.back(); }

  /// The trivial one-shard plan.
  [[nodiscard]] static ShardPlan single(NodeId n);

  /// Splits rows so every shard owns a near-equal share of the half-edges
  /// (the sweep work and the gather bytes), found by binary search on the
  /// CSR offsets. Deterministic in (offsets, shards).
  [[nodiscard]] static ShardPlan balanced(std::span<const EdgeIndex> offsets,
                                          std::uint32_t shards);
};

}  // namespace socmix::graph
