#include "sybil/sybil_limit.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "graph/frontier.hpp"
#include "graph/reorder.hpp"
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

std::uint64_t admission_sweep_fingerprint(const graph::Graph& g,
                                          const AdmissionSweepConfig& config) {
  std::uint64_t h = graph::structural_fingerprint(g);
  h = util::hash_combine(h, config.route_lengths.size());
  for (const std::size_t w : config.route_lengths) h = util::hash_combine(h, w);
  h = util::hash_combine(h, config.suspect_sample);
  h = util::hash_combine(h, config.verifier_sample);
  h = util::hash_combine(h, std::bit_cast<std::uint64_t>(config.r0));
  h = util::hash_combine(h, std::bit_cast<std::uint64_t>(config.balance_factor));
  h = util::hash_combine(h, config.seed);
  // Only a set override joins, so default-config hashes are unchanged.
  if (config.instances_override != 0) h = util::hash_combine(h, config.instances_override);
  // The word the removed ordering knob folded at its default, kept so
  // snapshots written before the removal still restore.
  return util::hash_combine(h, static_cast<std::uint64_t>(graph::ReorderMode::kNone));
}

std::vector<AdmissionPoint> admission_sweep(const graph::Graph& g,
                                            const AdmissionSweepConfig& config) {
  SOCMIX_TRACE_SPAN("sybil.admission_sweep");
  // Fail closed before the fingerprint or the sampling reads adjacency.
  RouteTable::require_adjacency(g);
  util::Rng rng{config.seed};
  const std::vector<graph::NodeId> suspects =
      config.suspect_sample == 0
          ? markov::all_sources(g)
          : markov::pick_sources(g, config.suspect_sample, rng);
  const std::vector<graph::NodeId> verifiers =
      markov::pick_sources(g, std::max<std::size_t>(1, config.verifier_sample), rng);

  // Route-length points are independent (per-length admission state over
  // one shared protocol seed), so each one is a checkpoint block holding
  // its admitted fraction.
  resilience::CheckpointOptions checkpoint_options = config.checkpoint;
  if (checkpoint_options.enabled() && checkpoint_options.name.empty()) {
    checkpoint_options.name = "sybil-admission";
  }
  // The engine version joins the context word: pre-engine snapshots were
  // measured under per-length protocol seeds, so replaying them against
  // the shared-seed engine would silently mix distributions — classify
  // them stale and recompute instead. The leading word is the removed
  // ordering knob's default, kept so older snapshots still restore.
  std::uint64_t context =
      util::hash_combine(static_cast<std::uint64_t>(graph::ReorderMode::kNone),
                         graph::frontier_context_word(config.frontier));
  context = util::hash_combine(context, kAdmissionEngineVersion);
  resilience::BlockCheckpoint checkpoint{checkpoint_options,
                                         admission_sweep_fingerprint(g, config),
                                         config.route_lengths.size(), context};
  if (checkpoint.enabled()) checkpoint.restore();

  // Pending points = blocks the checkpoint could not restore.
  std::vector<std::size_t> pending_lengths;
  const auto restored = [&](std::size_t i) {
    return checkpoint.is_restored(i) && checkpoint.restored_payload(i).size() == 1;
  };
  for (std::size_t i = 0; i < config.route_lengths.size(); ++i) {
    if (!restored(i)) pending_lengths.push_back(config.route_lengths[i]);
  }

  // One engine serves every pending point: O(w_max) route hops per node
  // (incremental tail extension) and one verifier index build, where the
  // pre-engine interior rewalked and rebuilt per length. Points restored
  // in an earlier run recompute bit-identically on resume because each
  // length's admission state is independent.
  std::vector<double> fractions;
  AdmissionEngineStats stats;
  if (!pending_lengths.empty()) {
    AdmissionEngine engine{g, config, config.route_lengths};
    fractions = engine.sweep_fractions(verifiers, suspects, pending_lengths);
    stats = engine.stats();
  }
  if (config.engine_stats != nullptr) *config.engine_stats = stats;

  std::vector<AdmissionPoint> out;
  out.reserve(config.route_lengths.size());
  std::size_t next_pending = 0;
  for (std::size_t i = 0; i < config.route_lengths.size(); ++i) {
    const std::size_t w = config.route_lengths[i];
    if (restored(i)) {
      out.push_back({w, checkpoint.restored_payload(i).front()});
      continue;
    }
    const double fraction = fractions[next_pending++];
    resilience::fault_point("block.complete");
    checkpoint.record(i, {fraction});
    out.push_back({w, fraction});
  }
  checkpoint.finalize();
  return out;
}

}  // namespace socmix::sybil
