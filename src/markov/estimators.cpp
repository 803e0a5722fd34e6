#include "markov/estimators.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "linalg/vector_ops.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/random_walk.hpp"
#include "markov/stationary.hpp"

namespace socmix::markov {

namespace {

[[nodiscard]] double separation_of(std::span<const double> dist,
                                   std::span<const double> pi) noexcept {
  double worst = 0.0;
  for (std::size_t v = 0; v < dist.size(); ++v) {
    worst = std::max(worst, 1.0 - dist[v] / pi[v]);
  }
  return std::clamp(worst, 0.0, 1.0);
}

}  // namespace

double separation_distance(const graph::Graph& g, graph::NodeId source,
                           std::size_t steps, double laziness) {
  const auto pi = stationary_distribution(g);
  return separation_of(walk_distribution(g, source, steps, laziness), pi);
}

std::vector<double> separation_trajectory(const graph::Graph& g, graph::NodeId source,
                                          std::size_t max_steps, double laziness) {
  const auto pi = stationary_distribution(g);
  BatchedEvolver evolver{g, laziness, 1};
  const graph::NodeId seed[] = {source};
  evolver.seed_point_masses(seed);
  std::vector<double> dist(evolver.dim());
  std::vector<double> out;
  out.reserve(max_steps);
  for (std::size_t t = 0; t < max_steps; ++t) {
    evolver.step();
    evolver.copy_distribution(0, dist);
    out.push_back(separation_of(dist, pi));
  }
  return out;
}

TailUniformity estimate_tail_uniformity(const graph::Graph& g, graph::NodeId source,
                                        std::size_t length, std::size_t walks,
                                        util::Rng& rng) {
  TailUniformity out;
  const double num_edges = static_cast<double>(g.num_half_edges());
  if (walks == 0 || length == 0 || num_edges == 0) return out;

  // Count tails keyed by directed edge (from, to); walks of length >= 1
  // always end with a well-defined final edge on an isolated-free graph.
  std::unordered_map<std::uint64_t, std::uint64_t> tail_counts;
  tail_counts.reserve(walks * 2);
  std::size_t completed = 0;
  for (std::size_t i = 0; i < walks; ++i) {
    const auto walk = sample_walk(g, source, length, rng);
    if (walk.size() < 2) continue;  // stuck start vertex
    const graph::NodeId from = walk[walk.size() - 2];
    const graph::NodeId to = walk.back();
    ++tail_counts[(static_cast<std::uint64_t>(from) << 32) | to];
    ++completed;
  }
  if (completed == 0) return out;

  // TVD to uniform over directed edges:
  // 0.5 * [ sum_{seen} |f_e - u| + (#unseen) * u ],  u = 1/2m.
  const double uniform = 1.0 / num_edges;
  double seen_term = 0.0;
  double max_ratio = 0.0;
  for (const auto& [edge, count] : tail_counts) {
    const double freq = static_cast<double>(count) / static_cast<double>(completed);
    seen_term += std::abs(freq - uniform);
    max_ratio = std::max(max_ratio, freq / uniform);
  }
  const double unseen = num_edges - static_cast<double>(tail_counts.size());
  out.tvd_to_uniform = 0.5 * (seen_term + unseen * uniform);
  out.unseen_edge_fraction = unseen / num_edges;
  out.max_overrepresentation = max_ratio;
  return out;
}

double monte_carlo_tvd(const graph::Graph& g, graph::NodeId source, std::size_t steps,
                       std::size_t walks, std::span<const double> pi, util::Rng& rng) {
  const auto freq = endpoint_distribution(g, source, steps, walks, rng);
  return linalg::total_variation(freq, pi);
}

}  // namespace socmix::markov
