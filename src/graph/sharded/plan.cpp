#include "graph/sharded/plan.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace socmix::graph {

std::optional<ShardPolicy> parse_shard_policy(std::string_view name) noexcept {
  if (name.empty() || name == "auto") return ShardPolicy{};
  if (name == "off") return ShardPolicy{.mode = ShardPolicy::Mode::kOff};
  const auto count = util::parse_i64(name);
  if (!count || *count < 1 || *count > ShardPolicy::kMaxShards) return std::nullopt;
  return ShardPolicy{.mode = ShardPolicy::Mode::kFixed,
                     .count = static_cast<std::uint32_t>(*count)};
}

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

std::uint64_t shard_context_word(std::uint32_t resolved_shards) noexcept {
  if (resolved_shards <= 1) return 0;
  // 'SHRD' tag so the word cannot collide with the retired frontier and
  // precision words it is hash-combined alongside.
  return util::hash_combine(std::uint64_t{0x53485244}, resolved_shards);
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
