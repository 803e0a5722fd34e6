// The shard-at-a-time walk operator is WalkOperator constructed with a
// ShardPlan (see walk_operator.hpp). This name survives only because
// perfbench/ constructs it with a trailing io-mode argument; that knob is
// retired (ShardPipeline picks its own staging), so the argument is a
// RetiredKnob and nothing reads it. Delete this header with the next
// benchmark change.
#pragma once

#include <utility>

#include "linalg/walk_operator.hpp"
#include "util/retired_knob.hpp"

namespace socmix::linalg {

class ShardedWalkOperator : public WalkOperator {
 public:
  ShardedWalkOperator(const graph::Graph& g, graph::ShardPlan plan, double laziness,
                      const graph::sharded::MappedGraph* mapped,
                      util::RetiredKnob /*io_mode*/)
      : WalkOperator(g, std::move(plan), laziness, mapped) {}
};

}  // namespace socmix::linalg
