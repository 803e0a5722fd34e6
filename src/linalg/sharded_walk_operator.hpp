// The five-argument ShardedWalkOperator survives only because perfbench/
// constructs it. Every graph is now swept as one resident CSR, so it is a
// plain WalkOperator that ignores its plan, its pack and its (retired)
// io-mode argument. Delete this header with the next benchmark change.
#pragma once

#include "graph/graph.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/walk_operator.hpp"
#include "util/retired_knob.hpp"

namespace socmix::linalg {

class ShardedWalkOperator : public WalkOperator {
 public:
  ShardedWalkOperator(const graph::Graph& g, const graph::ShardPlan& /*plan*/,
                      double laziness, const graph::sharded::MappedGraph* /*mapped*/,
                      util::RetiredKnob /*io_mode*/)
      : WalkOperator(g, laziness) {}
};

}  // namespace socmix::linalg
