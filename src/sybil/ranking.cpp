#include "sybil/ranking.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "markov/batched_evolver.hpp"
#include "markov/trust_walk.hpp"

namespace socmix::sybil {

std::vector<double> walk_probability_scores(const graph::Graph& g,
                                            graph::NodeId verifier,
                                            std::size_t walk_length) {
  auto dist = markov::walk_distribution(g, verifier, walk_length);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    dist[v] /= static_cast<double>(g.degree(v));
  }
  return dist;
}

std::vector<double> pagerank_scores(const graph::Graph& g, graph::NodeId verifier,
                                    double beta) {
  auto ppr = markov::personalized_pagerank(g, verifier, beta);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ppr[v] /= static_cast<double>(g.degree(v));
  }
  return ppr;
}

std::vector<graph::NodeId> ranking_from_scores(std::span<const double> scores) {
  std::vector<graph::NodeId> order(scores.size());
  std::iota(order.begin(), order.end(), graph::NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](graph::NodeId a, graph::NodeId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  return order;
}

RankingEvaluation evaluate_ranking(const AttackedGraph& attacked,
                                   std::span<const double> scores) {
  if (scores.size() != attacked.graph.num_nodes()) {
    throw std::invalid_argument{"evaluate_ranking: score vector size mismatch"};
  }
  RankingEvaluation out;
  const auto order = ranking_from_scores(scores);

  // AUC via rank-sum (Mann-Whitney): walk the ranking best-to-worst and
  // count honest-above-sybil pairs, handling score ties by counting half.
  const std::uint64_t honest_total = attacked.num_honest();
  const std::uint64_t sybil_total = attacked.num_sybil();
  std::uint64_t sybils_seen = 0;
  double pairs_honest_above = 0.0;
  for (std::size_t i = 0; i < order.size();) {
    // Process one tie-group at a time.
    std::size_t j = i;
    std::uint64_t honest_in_group = 0;
    std::uint64_t sybil_in_group = 0;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) {
      if (attacked.is_sybil(order[j])) ++sybil_in_group;
      else ++honest_in_group;
      ++j;
    }
    pairs_honest_above += static_cast<double>(honest_in_group) *
                          (static_cast<double>(sybils_seen) +
                           0.5 * static_cast<double>(sybil_in_group));
    sybils_seen += sybil_in_group;
    i = j;
  }
  // pairs_honest_above counts sybils ranked ABOVE each honest node; AUC is
  // the complement fraction.
  const double total_pairs =
      static_cast<double>(honest_total) * static_cast<double>(sybil_total);
  out.auc = total_pairs == 0.0 ? 0.0 : 1.0 - pairs_honest_above / total_pairs;

  // Cutoff at rank = #honest.
  std::uint64_t honest_in_prefix = 0;
  std::uint64_t sybil_in_prefix = 0;
  for (std::size_t i = 0; i < honest_total && i < order.size(); ++i) {
    if (attacked.is_sybil(order[i])) ++sybil_in_prefix;
    else ++honest_in_prefix;
  }
  out.honest_admitted_at_cutoff =
      honest_total == 0 ? 0.0
                        : static_cast<double>(honest_in_prefix) /
                              static_cast<double>(honest_total);
  out.sybils_admitted_at_cutoff = sybil_in_prefix;
  return out;
}

}  // namespace socmix::sybil
