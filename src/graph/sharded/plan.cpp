#include "graph/sharded/plan.hpp"

#include <algorithm>

namespace socmix::graph {

std::uint32_t resolve_shard_count(const ShardPolicy& policy, std::size_t csr_bytes,
                                  NodeId n, std::uint32_t resident_copies) noexcept {
  if (n == 0) return 1;
  std::uint32_t shards = 1;
  switch (policy.mode) {
    case ShardPolicy::Mode::kOff:
      return 1;
    case ShardPolicy::Mode::kFixed:
      shards = std::max<std::uint32_t>(1, policy.count);
      break;
    case ShardPolicy::Mode::kAuto: {
      // Keep resident_copies windows inside the 2-copy sweep's envelope:
      // shards = ceil(csr_bytes * copies / (2 * kAutoShardBytes)), which
      // reduces to the classic ceil(csr_bytes / kAutoShardBytes) at 2.
      const std::size_t copies = std::max<std::uint32_t>(2, resident_copies);
      const std::size_t envelope = 2 * ShardPolicy::kAutoShardBytes;
      shards = static_cast<std::uint32_t>(
          std::min<std::size_t>((csr_bytes * copies + envelope - 1) / envelope,
                                ShardPolicy::kMaxShards));
      break;
    }
  }
  shards = std::min<std::uint32_t>(shards, ShardPolicy::kMaxShards);
  // More shards than rows would only manufacture empty shards.
  return std::max<std::uint32_t>(1, std::min<std::uint32_t>(shards, n));
}

ShardPlan ShardPlan::single(NodeId n) { return ShardPlan{.bounds = {0, n}}; }

ShardPlan ShardPlan::balanced(std::span<const EdgeIndex> offsets, std::uint32_t shards) {
  const NodeId n = offsets.empty() ? 0 : static_cast<NodeId>(offsets.size() - 1);
  if (shards <= 1 || n == 0) return single(n);
  const EdgeIndex total = offsets.back();
  ShardPlan plan;
  plan.bounds.resize(static_cast<std::size_t>(shards) + 1);
  plan.bounds.front() = 0;
  plan.bounds.back() = n;
  for (std::uint32_t s = 1; s < shards; ++s) {
    // First row whose cumulative half-edge count reaches s/shards of the
    // total; clamped monotone so empty rows cannot reorder bounds. The
    // split computes floor(total*s/shards) without 128-bit arithmetic.
    const EdgeIndex target =
        (total / shards) * s + ((total % shards) * s) / shards;
    const auto it = std::lower_bound(offsets.begin(), offsets.end(), target);
    auto row = static_cast<NodeId>(std::distance(offsets.begin(), it));
    row = std::clamp(row, plan.bounds[s - 1], n);
    plan.bounds[s] = row;
  }
  return plan;
}

}  // namespace socmix::graph
