// The shard-at-a-time walk operator is WalkOperator constructed with a
// ShardPlan (see walk_operator.hpp); this name is kept for existing
// callers.
#pragma once

#include "linalg/walk_operator.hpp"

namespace socmix::linalg {

using ShardedWalkOperator = WalkOperator;

}  // namespace socmix::linalg
