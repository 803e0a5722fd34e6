#include "sybil/sybil_limit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "markov/mixing_time.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "sybil/admission_engine.hpp"
#include "util/rng.hpp"

namespace socmix::sybil {

SybilLimit::SybilLimit(const graph::Graph& g, const SybilLimitParams& params)
    : routes_(g, params.seed), params_(params), instances_(params.instances(g)) {}

std::vector<DirectedEdge> SybilLimit::registration_tails(graph::NodeId node) const {
  std::vector<DirectedEdge> tails;
  tails.reserve(instances_);
  for (std::uint32_t i = 0; i < instances_; ++i) {
    if (const auto tail = routes_.route_tail(i, node, params_.route_length)) {
      tails.push_back(*tail);
    }
  }
  SOCMIX_COUNTER_ADD("sybil.routes_walked", instances_);
  SOCMIX_COUNTER_ADD("sybil.route_dead_ends", instances_ - tails.size());
  return tails;
}

SybilLimit::Verifier SybilLimit::make_verifier(graph::NodeId node) const {
  Verifier v;
  v.node_ = node;
  // At most r distinct tails; reserving up front keeps the index build out
  // of rehash territory (r ~ sqrt(m) buckets is small next to the graph).
  v.tail_index_.reserve(instances_);
  v.load_.reserve(instances_);
  for (const DirectedEdge tail : registration_tails(node)) {
    const std::uint64_t key = undirected_key(tail);
    if (!v.tail_index_.contains(key)) {
      v.tail_index_.emplace(key, static_cast<std::uint32_t>(v.load_.size()));
      v.load_.push_back(0);
    }
  }
  return v;
}

bool SybilLimit::Verifier::intersects(const SybilLimit& protocol,
                                      graph::NodeId suspect) const {
  SOCMIX_COUNTER_ADD("sybil.intersection_checks", 1);
  for (const DirectedEdge tail : protocol.registration_tails(suspect)) {
    if (tail_index_.contains(undirected_key(tail))) {
      SOCMIX_COUNTER_ADD("sybil.intersections", 1);
      return true;
    }
  }
  return false;
}

bool SybilLimit::Verifier::admit(const SybilLimit& protocol, graph::NodeId suspect) {
  // Gather the verifier tails this suspect intersects.
  SOCMIX_COUNTER_ADD("sybil.admission_trials", 1);
  std::vector<std::uint32_t> candidates;
  for (const DirectedEdge tail : protocol.registration_tails(suspect)) {
    const auto it = tail_index_.find(undirected_key(tail));
    if (it != tail_index_.end()) candidates.push_back(it->second);
  }
  if (candidates.empty()) {
    SOCMIX_COUNTER_ADD("sybil.rejected_no_intersection", 1);
    return false;
  }
  SOCMIX_COUNTER_ADD("sybil.intersections", 1);

  // Balance condition: assign to the least-loaded intersecting tail; the
  // load after assignment must stay within b = h * max(log r, (A+1)/r).
  const auto least = *std::min_element(
      candidates.begin(), candidates.end(),
      [&](std::uint32_t a, std::uint32_t b) { return load_[a] < load_[b]; });
  const double r = static_cast<double>(protocol.instances());
  const double bound = protocol.params().balance_factor *
                       std::max(std::log(r), (static_cast<double>(accepted_) + 1.0) / r);
  if (static_cast<double>(load_[least]) + 1.0 > bound) {
    SOCMIX_COUNTER_ADD("sybil.rejected_balance", 1);
    return false;
  }

  ++load_[least];
  ++accepted_;
  SOCMIX_COUNTER_ADD("sybil.admitted", 1);
  return true;
}

std::vector<AdmissionPoint> admission_sweep(const graph::Graph& g,
                                            const AdmissionSweepConfig& config) {
  SOCMIX_TRACE_SPAN("sybil.admission_sweep");
  if (config.verifier_sample == 0) {
    throw std::invalid_argument{"admission_sweep: verifier_sample must be at least 1"};
  }
  util::Rng rng{config.seed};
  const std::vector<graph::NodeId> suspects =
      config.suspect_sample == 0
          ? markov::all_sources(g)
          : markov::pick_sources(g, config.suspect_sample, rng);
  const std::vector<graph::NodeId> verifiers =
      markov::pick_sources(g, config.verifier_sample, rng);

  // One engine serves every point: O(w_max) route hops per node
  // (incremental tail extension) and one verifier index build, where the
  // pre-engine interior rewalked and rebuilt per length.
  std::vector<double> fractions;
  AdmissionEngineStats stats;
  if (!config.route_lengths.empty()) {
    AdmissionEngine engine{g, config, config.route_lengths};
    fractions = engine.sweep_fractions(verifiers, suspects, config.route_lengths);
    stats = engine.stats();
  }
  if (config.engine_stats != nullptr) *config.engine_stats = stats;

  std::vector<AdmissionPoint> out;
  out.reserve(config.route_lengths.size());
  for (std::size_t i = 0; i < config.route_lengths.size(); ++i) {
    resilience::fault_point("block.complete");
    out.push_back({config.route_lengths[i], fractions[i]});
  }
  return out;
}

}  // namespace socmix::sybil
