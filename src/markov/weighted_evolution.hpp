// Exact evolution and mixing measurement for weighted random walks.
//
// The weighted chain x_{t+1} = x_t P_w with P_w(i,j) = w_ij / strength(i);
// stationary distribution pi_w(v) = strength(v) / total_strength (the
// weighted Theorem 1). Everything mirrors batched_evolver.hpp / mixing_time.hpp
// so interaction-weighted graphs get the same measurement surface.
#pragma once

#include <span>
#include <vector>

#include "graph/weighted_graph.hpp"
#include "markov/mixing_time.hpp"

namespace socmix::markov {

/// pi_w(v) = strength(v) / total_strength.
[[nodiscard]] std::vector<double> weighted_stationary_distribution(
    const graph::WeightedGraph& g);

/// Advances row distributions through the weighted transition matrix.
class WeightedEvolver {
 public:
  explicit WeightedEvolver(const graph::WeightedGraph& g, double laziness = 0.0);

  [[nodiscard]] std::size_t dim() const noexcept { return inv_strength_.size(); }

  void step(std::span<const double> current, std::span<double> next) const noexcept;
  void advance(std::vector<double>& dist, std::size_t steps);
  [[nodiscard]] std::vector<double> point_mass(graph::NodeId v) const;

 private:
  const graph::WeightedGraph* graph_;
  std::vector<double> inv_strength_;
  std::vector<double> scratch_;
  double laziness_;
};

/// TVD trajectory of a point mass under the weighted chain.
[[nodiscard]] std::vector<double> weighted_tvd_trajectory(const graph::WeightedGraph& g,
                                                          graph::NodeId source,
                                                          std::size_t max_steps,
                                                          double laziness = 0.0);

/// Sampled mixing measurement on the weighted chain (same aggregation
/// surface as the unweighted SampledMixing).
[[nodiscard]] SampledMixing measure_weighted_sampled_mixing(
    const graph::WeightedGraph& g, std::span<const graph::NodeId> sources,
    std::size_t max_steps, double laziness = 0.0);

}  // namespace socmix::markov
