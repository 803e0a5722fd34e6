// Monte-Carlo random walks on a graph.
//
// Distinct from batched_evolver.hpp (which pushes the *exact* distribution):
// these sample actual vertex sequences, as the Sybil defenses do at
// runtime. Used by the SybilLimit substrate and by tests that check the
// empirical visit frequency converges to pi.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace socmix::markov {

/// One simple random walk of `length` steps from `start`; returns the
/// vertex sequence including both endpoints (length+1 entries).
[[nodiscard]] std::vector<graph::NodeId> sample_walk(const graph::Graph& g,
                                                     graph::NodeId start,
                                                     std::size_t length, util::Rng& rng);

/// Terminal vertex of a simple random walk (no sequence materialized).
[[nodiscard]] graph::NodeId walk_endpoint(const graph::Graph& g, graph::NodeId start,
                                          std::size_t length, util::Rng& rng);

/// Empirical distribution of walk endpoints: `walks` walks of `length`
/// from `start`; returns visit frequencies normalized to 1.
[[nodiscard]] std::vector<double> endpoint_distribution(const graph::Graph& g,
                                                        graph::NodeId start,
                                                        std::size_t length,
                                                        std::size_t walks, util::Rng& rng);

}  // namespace socmix::markov
