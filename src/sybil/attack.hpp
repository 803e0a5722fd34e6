// Sybil attack harness: glue a Sybil region onto an honest graph.
//
// The paper's §5 analysis: SybilLimit bounds accepted Sybil identities by
// g * w (g attack edges, w route length), and it works only while
// g < n / w. This harness constructs the composite graph — honest region +
// adversary-controlled region joined by g attack edges — so that bound can
// be measured rather than assumed.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace socmix::sybil {

struct AttackConfig {
  /// Number of Sybil identities (vertices in the adversary region).
  graph::NodeId sybil_nodes = 1000;
  /// Attack edges g between honest and Sybil regions.
  graph::NodeId attack_edges = 10;
  /// Mean degree inside the Sybil region (adversary wires it densely so
  /// its own routes mix fast internally).
  double sybil_avg_degree = 10.0;
  std::uint64_t seed = 0xa77ac4ULL;
};

struct AttackedGraph {
  graph::Graph graph;
  /// First vertex id of the Sybil region; ids >= this are Sybil.
  graph::NodeId sybil_base = 0;
  graph::NodeId attack_edges = 0;

  [[nodiscard]] bool is_sybil(graph::NodeId v) const noexcept { return v >= sybil_base; }
  [[nodiscard]] graph::NodeId num_honest() const noexcept { return sybil_base; }
  [[nodiscard]] graph::NodeId num_sybil() const noexcept {
    return graph.num_nodes() - sybil_base;
  }
};

/// Builds honest + Sybil composite: the Sybil region is an Erdős–Rényi
/// graph (made connected), joined to uniform honest vertices by
/// `attack_edges` distinct edges.
[[nodiscard]] AttackedGraph attach_sybil_region(const graph::Graph& honest,
                                                const AttackConfig& config);

}  // namespace socmix::sybil
