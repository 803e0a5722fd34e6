#include "sybil/admission_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace socmix::sybil {

namespace {

/// Free directory slot; no edge has this key (it needs both endpoints at
/// kInvalidNode).
constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
constexpr std::uint32_t kNoColumn = std::numeric_limits<std::uint32_t>::max();

std::vector<std::size_t> normalize_lengths(std::span<const std::size_t> lengths) {
  std::vector<std::size_t> out{lengths.begin(), lengths.end()};
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Home slot of `key` in a table of `capacity` (< 2^32) slots.
std::size_t home_slot(std::uint64_t key, std::size_t capacity) noexcept {
  return static_cast<std::size_t>(((util::mix64(key) >> 32) * capacity) >> 32);
}

/// One lane of a batched block: the verifier load counters its suspect's
/// tails hit, grouped by (length, verifier column) and kept in
/// suspect-tail order inside each group. Cache-line aligned so lanes
/// filled by different threads never share a line.
struct alignas(64) Lane {
  struct Hit {
    std::uint32_t group;
    std::uint32_t load;
  };
  std::vector<Hit> hits;
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> candidates;

  /// Stable counting sort of `hits` into `groups` candidate lists.
  void group(std::size_t groups) {
    begin.assign(groups + 1, 0);
    for (const Hit h : hits) ++begin[h.group + 1];
    for (std::size_t g = 0; g < groups; ++g) begin[g + 1] += begin[g];
    candidates.resize(hits.size());
    for (const Hit h : hits) candidates[begin[h.group]++] = h.load;
    // The scatter advanced each begin[g] to its group's end, which is
    // begin[g+1]'s start: shift back by one group.
    for (std::size_t g = groups; g > 0; --g) begin[g] = begin[g - 1];
    begin[0] = 0;
  }
  [[nodiscard]] std::span<const std::uint32_t> in_group(std::size_t g) const {
    return {candidates.data() + begin[g], candidates.data() + begin[g + 1]};
  }
};

}  // namespace

std::span<const AdmissionEngine::TailDirectory::Entry>
AdmissionEngine::TailDirectory::find(std::uint64_t key) const noexcept {
  const std::size_t capacity = keys_.size();
  if (capacity == 0) return {};
  for (std::size_t h = home_slot(key, capacity);;) {
    const std::uint64_t k = keys_[h];
    if (k == key) return {entries_.data() + begin_[h], entries_.data() + begin_[h + 1]};
    if (k == kEmptyKey) return {};
    if (++h == capacity) h = 0;
  }
}

void AdmissionEngine::TailDirectory::postings(std::vector<Posting>& out) const {
  for (std::size_t h = 0; h < keys_.size(); ++h) {
    for (std::uint32_t e = begin_[h]; e < begin_[h + 1]; ++e) {
      out.push_back({keys_[h], entries_[e]});
    }
  }
}

void AdmissionEngine::TailDirectory::assign(std::vector<Posting>& postings) {
  std::sort(postings.begin(), postings.end(), [](const Posting& a, const Posting& b) {
    return a.key != b.key ? a.key < b.key : a.entry.slot < b.entry.slot;
  });
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < postings.size(); ++i) {
    if (i == 0 || postings[i].key != postings[i - 1].key) ++distinct;
  }
  const std::size_t capacity = distinct + (distinct + 1) / 2;
  keys_.assign(capacity, kEmptyKey);
  begin_.assign(capacity + 1, 0);
  entries_.resize(postings.size());
  // Place each distinct key, recording its run length in begin_[h + 1];
  // a prefix sum then turns lengths into run offsets.
  std::vector<std::uint32_t> home;
  home.reserve(distinct);
  for (std::size_t i = 0; i < postings.size();) {
    std::size_t j = i;
    while (j < postings.size() && postings[j].key == postings[i].key) ++j;
    std::size_t h = home_slot(postings[i].key, capacity);
    while (keys_[h] != kEmptyKey) h = h + 1 == capacity ? 0 : h + 1;
    keys_[h] = postings[i].key;
    begin_[h + 1] = static_cast<std::uint32_t>(j - i);
    home.push_back(static_cast<std::uint32_t>(h));
    i = j;
  }
  for (std::size_t h = 0; h < capacity; ++h) begin_[h + 1] += begin_[h];
  std::size_t run = 0;
  for (std::size_t i = 0; i < postings.size(); ++run) {
    std::uint32_t at = begin_[home[run]];
    for (const std::uint64_t key = postings[i].key;
         i < postings.size() && postings[i].key == key; ++i) {
      entries_[at++] = postings[i].entry;
    }
  }
}

std::size_t AdmissionEngine::TailDirectory::size() const noexcept {
  return entries_.size();
}

AdmissionEngine::AdmissionEngine(const graph::Graph& g,
                                 const AdmissionEngineConfig& config,
                                 std::span<const std::size_t> route_lengths)
    : routes_(g, config.seed),
      config_(config),
      instances_(config.instances(g)),
      lengths_(normalize_lengths(route_lengths)),
      directory_(lengths_.size()) {
  graph_fingerprint_ = graph::structural_fingerprint(g);
  recompute_epoch();
}

void AdmissionEngine::recompute_epoch() {
  std::uint64_t h = util::hash_combine(kAdmissionEngineVersion, graph_fingerprint_);
  h = util::hash_combine(h, config_.seed);
  h = util::hash_combine(h, instances_);
  h = util::hash_combine(h, std::bit_cast<std::uint64_t>(config_.balance_factor));
  h = util::hash_combine(h, lengths_.size());
  for (const std::size_t w : lengths_) h = util::hash_combine(h, w);
  epoch_ = util::hash_combine(h, generation_);
}

void AdmissionEngine::invalidate() {
  verifiers_.clear();
  slots_.clear();
  filed_slots_ = 0;
  directory_.assign(lengths_.size(), {});
  routes_.rebuild_reverse_edges();
  ++generation_;
  graph_fingerprint_ = graph::structural_fingerprint(routes_.graph());
  recompute_epoch();
  SOCMIX_COUNTER_ADD("sybil.engine.invalidations", 1);
}

std::uint64_t AdmissionEngine::CachedVerifier::max_load(std::size_t li) const {
  std::uint64_t max = 0;
  for (const std::uint64_t l : state_[li].load) max = std::max(max, l);
  return max;
}

void AdmissionEngine::CachedVerifier::reset_balance() {
  for (PerLength& per : state_) {
    std::fill(per.load.begin(), per.load.end(), 0);
    per.accepted = 0;
  }
}

std::size_t AdmissionEngine::length_index(std::size_t w) const {
  const auto it = std::lower_bound(lengths_.begin(), lengths_.end(), w);
  return static_cast<std::size_t>(it - lengths_.begin());
}

std::uint64_t AdmissionEngine::naive_hops_per_node() const noexcept {
  std::uint64_t sum = 0;
  for (const std::size_t w : lengths_) sum += w;
  return sum * instances_;
}

std::uint64_t AdmissionEngine::hops_to(graph::NodeId start, std::size_t length) const {
  if (routes_.graph().degree(start) == 0) return 0;
  return static_cast<std::uint64_t>(instances_) * length;
}

void AdmissionEngine::registration_tails_multi(
    graph::NodeId suspect, std::vector<std::vector<DirectedEdge>>& out) const {
  out.assign(lengths_.size(), {});
  routes_.for_each_tail(instances_, suspect, lengths_,
                        [&](std::size_t k, std::uint32_t, DirectedEdge tail) {
                          out[k].push_back(tail);
                        });
}

void AdmissionEngine::build_verifier(CachedVerifier& v, graph::NodeId node) {
  SOCMIX_TRACE_SPAN("sybil.engine.precompute");
  const util::Timer timer;
  v.node_ = node;
  v.epoch_ = epoch_;
  v.state_.assign(lengths_.size(), {});
  std::vector<std::vector<DirectedEdge>> tails;
  registration_tails_multi(node, tails);
  for (std::size_t li = 0; li < lengths_.size(); ++li) {
    // Several instances sharing a tail edge share one load counter.
    CachedVerifier::PerLength& per = v.state_[li];
    std::vector<std::uint64_t>& keys = per.unfiled_keys;
    keys.reserve(tails[li].size());
    for (const DirectedEdge tail : tails[li]) keys.push_back(undirected_key(tail));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    per.load.assign(keys.size(), 0);
  }
  // One incremental walk to w_max replaced a per-length rewalk.
  const std::uint64_t walked = hops_to(node, lengths_.back());
  stats_.route_hops_walked += walked;
  stats_.route_hops_saved += naive_hops_per_node() - walked;
  stats_.precompute_seconds += timer.seconds();
  SOCMIX_COUNTER_ADD("sybil.engine.hops_walked", walked);
  SOCMIX_COUNTER_ADD("sybil.engine.hops_saved", naive_hops_per_node() - walked);
  SOCMIX_TIME_OBSERVE("sybil.engine.precompute_seconds", timer.seconds());
}

AdmissionEngine::CachedVerifier& AdmissionEngine::verifier(graph::NodeId node) {
  const auto it = verifiers_.find(node);
  if (it != verifiers_.end()) {
    ++stats_.verifier_cache_hits;
    // A hit serves what the pre-engine path rebuilt per sweep point.
    stats_.route_hops_saved += naive_hops_per_node();
    SOCMIX_COUNTER_ADD("sybil.engine.verifier_cache_hits", 1);
    SOCMIX_COUNTER_ADD("sybil.engine.hops_saved", naive_hops_per_node());
    return it->second;
  }
  ++stats_.verifier_cache_misses;
  SOCMIX_COUNTER_ADD("sybil.engine.verifier_cache_misses", 1);
  CachedVerifier& v = verifiers_[node];
  v.slot_ = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(&v);
  build_verifier(v, node);
  return v;
}

void AdmissionEngine::file_new_verifiers() {
  if (filed_slots_ == slots_.size()) return;
  SOCMIX_TRACE_SPAN("sybil.engine.file_tails");
  const util::Timer timer;
  // Rebuild each length's directory from its current postings plus the
  // new verifiers' keys; a sweep or a warmed service files once.
  std::vector<TailDirectory::Posting> postings;
  for (std::size_t li = 0; li < lengths_.size(); ++li) {
    std::size_t count = directory_[li].size();
    for (std::size_t slot = filed_slots_; slot < slots_.size(); ++slot) {
      count += slots_[slot]->state_[li].unfiled_keys.size();
    }
    postings.clear();
    postings.reserve(count);
    directory_[li].postings(postings);
    for (std::size_t slot = filed_slots_; slot < slots_.size(); ++slot) {
      std::vector<std::uint64_t>& keys = slots_[slot]->state_[li].unfiled_keys;
      for (std::size_t j = 0; j < keys.size(); ++j) {
        postings.push_back({keys[j], {static_cast<std::uint32_t>(slot),
                                      static_cast<std::uint32_t>(j)}});
      }
      std::vector<std::uint64_t>{}.swap(keys);
    }
    directory_[li].assign(postings);
  }
  filed_slots_ = slots_.size();
  stats_.precompute_seconds += timer.seconds();
}

bool AdmissionEngine::commit(CachedVerifier& v, std::size_t li,
                             std::span<const std::uint32_t> candidates,
                             BatchResult* diagnostics) {
  // Bit-for-bit the decision SybilLimit::Verifier::admit makes: assign to
  // the least-loaded intersecting tail (the first in suspect-tail order on
  // ties), enforce b = h * max(log r, (A+1)/r) with the identical double
  // expression.
  if (candidates.empty()) {
    if (diagnostics != nullptr) ++diagnostics->rejected_no_intersection;
    return false;
  }
  CachedVerifier::PerLength& per = v.state_[li];
  std::uint32_t least = candidates.front();
  for (const std::uint32_t c : candidates.subspan(1)) {
    if (per.load[c] < per.load[least]) least = c;
  }
  const double r = static_cast<double>(instances_);
  const double bound =
      config_.balance_factor *
      std::max(std::log(r), (static_cast<double>(per.accepted) + 1.0) / r);
  if (static_cast<double>(per.load[least]) + 1.0 > bound) {
    if (diagnostics != nullptr) ++diagnostics->rejected_balance;
    return false;
  }
  ++per.load[least];
  ++per.accepted;
  return true;
}

AdmissionEngine::BatchResult AdmissionEngine::verify_batch(
    CachedVerifier& v, std::size_t li, std::span<const graph::NodeId> suspects) {
  SOCMIX_TRACE_SPAN("sybil.engine.verify_batch");
  file_new_verifiers();
  const util::Timer timer;
  BatchResult result;
  result.admitted.assign(suspects.size(), 0);

  // Block by block, each lane walks its suspect's tails and keeps the
  // load counters of `v` they hit (disjoint lanes, read-only directory);
  // then the balance commits replay serially in suspect order — results
  // do not depend on thread count or block boundaries.
  const std::size_t w[] = {lengths_[li]};
  const TailDirectory& directory = directory_[li];
  std::vector<Lane> lanes(kBatchLanes);
  std::uint64_t walked = 0;
  for (std::size_t base = 0; base < suspects.size(); base += kBatchLanes) {
    const std::size_t block = std::min(kBatchLanes, suspects.size() - base);
    util::parallel_for(0, block, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        std::vector<std::uint32_t>& candidates = lanes[s].candidates;
        candidates.clear();
        routes_.for_each_tail(
            instances_, suspects[base + s], w,
            [&](std::size_t, std::uint32_t, DirectedEdge tail) {
              for (const TailDirectory::Entry e : directory.find(undirected_key(tail))) {
                if (e.slot == v.slot_) candidates.push_back(e.load);
              }
            });
      }
    });
    for (std::size_t s = 0; s < block; ++s) {
      walked += hops_to(suspects[base + s], lengths_[li]);
      if (commit(v, li, lanes[s].candidates, &result)) {
        result.admitted[base + s] = 1;
        ++result.admitted_count;
      }
    }
  }

  result.max_tail_load = v.max_load(li);
  const double r = static_cast<double>(instances_);
  result.balance_bound =
      config_.balance_factor *
      std::max(std::log(r),
               (static_cast<double>(v.state_[li].accepted) + 1.0) / r);

  stats_.route_hops_walked += walked;
  stats_.queries += suspects.size();
  stats_.query_seconds += timer.seconds();
  SOCMIX_COUNTER_ADD("sybil.engine.hops_walked", walked);
  SOCMIX_COUNTER_ADD("sybil.engine.batches", 1);
  SOCMIX_COUNTER_ADD("sybil.engine.queries", suspects.size());
  SOCMIX_TIME_OBSERVE("sybil.engine.query_seconds", timer.seconds());
  return result;
}

std::vector<double> AdmissionEngine::sweep_fractions(
    std::span<const graph::NodeId> verifiers, std::span<const graph::NodeId> suspects,
    std::span<const std::size_t> lengths) {
  SOCMIX_TRACE_SPAN("sybil.engine.sweep");
  // Resolve the requested lengths against the engine grid and reset the
  // balance state they will accumulate — each sweep point starts from the
  // fresh-verifier state the protocol prescribes.
  std::vector<std::size_t> indexes;
  indexes.reserve(lengths.size());
  for (const std::size_t length : lengths) indexes.push_back(length_index(length));
  std::vector<CachedVerifier*> cached;
  cached.reserve(verifiers.size());
  for (const graph::NodeId vnode : verifiers) cached.push_back(&verifier(vnode));
  for (CachedVerifier* v : cached) v->reset_balance();
  file_new_verifiers();

  // Deduplicate the walk targets: two sweep points at the same w share one
  // set of suspect tails (and, because each resolves to the same state
  // slot, necessarily the same fraction).
  std::vector<std::size_t> unique_indexes = indexes;
  std::sort(unique_indexes.begin(), unique_indexes.end());
  unique_indexes.erase(std::unique(unique_indexes.begin(), unique_indexes.end()),
                       unique_indexes.end());
  // One candidate column per distinct verifier of this sweep; directory
  // entries of other cached verifiers are skipped.
  std::vector<std::uint32_t> column(slots_.size(), kNoColumn);
  std::uint32_t columns = 0;
  for (const CachedVerifier* v : cached) {
    if (column[v->slot_] == kNoColumn) column[v->slot_] = columns++;
  }
  const std::size_t groups = unique_indexes.size() * columns;

  const util::Timer timer;
  std::vector<std::uint64_t> admitted(lengths_.size(), 0);
  // One incremental walk per suspect covers every sweep point and every
  // verifier; the pre-engine path rewalked the suspect's r routes for each
  // (verifier, length) pair. Each lane probes the directory once per tail,
  // which files the hit load counters of every verifier at once; the
  // serial phase is only argmin, bound and commit, in suspect order, so
  // the per-(verifier, length) admit sequence is exactly suspect order.
  std::vector<std::size_t> walk_lengths;  // parallel to unique_indexes
  for (const std::size_t li : unique_indexes) walk_lengths.push_back(lengths_[li]);
  const std::size_t w_max = walk_lengths.empty() ? 0 : walk_lengths.back();
  const std::uint64_t naive =
      static_cast<std::uint64_t>(verifiers.size()) * naive_hops_per_node();
  std::vector<Lane> lanes(kBatchLanes);
  for (std::size_t base = 0; base < suspects.size(); base += kBatchLanes) {
    const std::size_t block = std::min(kBatchLanes, suspects.size() - base);
    util::parallel_for(0, block, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        Lane& lane = lanes[s];
        lane.hits.clear();
        routes_.for_each_tail(
            instances_, suspects[base + s], walk_lengths,
            [&](std::size_t u, std::uint32_t, DirectedEdge tail) {
              const auto group = static_cast<std::uint32_t>(u * columns);
              for (const TailDirectory::Entry e :
                   directory_[unique_indexes[u]].find(undirected_key(tail))) {
                const std::uint32_t col = column[e.slot];
                if (col != kNoColumn) lane.hits.push_back({group + col, e.load});
              }
            });
        lane.group(groups);
      }
    });
    for (std::size_t s = 0; s < block; ++s) {
      const std::uint64_t walked = hops_to(suspects[base + s], w_max);
      stats_.route_hops_walked += walked;
      stats_.route_hops_saved += naive - std::min(naive, walked);
      SOCMIX_COUNTER_ADD("sybil.engine.hops_walked", walked);
      SOCMIX_COUNTER_ADD("sybil.engine.hops_saved", naive - std::min(naive, walked));
      const Lane& lane = lanes[s];
      for (CachedVerifier* v : cached) {
        const std::uint32_t col = column[v->slot_];
        for (std::size_t u = 0; u < unique_indexes.size(); ++u) {
          const std::size_t li = unique_indexes[u];
          if (commit(*v, li, lane.in_group(u * columns + col), nullptr)) ++admitted[li];
        }
      }
    }
  }

  const std::uint64_t trials =
      static_cast<std::uint64_t>(verifiers.size()) * suspects.size();
  stats_.queries += trials * unique_indexes.size();
  stats_.query_seconds += timer.seconds();
  SOCMIX_COUNTER_ADD("sybil.engine.queries", trials * unique_indexes.size());
  SOCMIX_TIME_OBSERVE("sybil.engine.query_seconds", timer.seconds());

  std::vector<double> fractions;
  fractions.reserve(indexes.size());
  for (const std::size_t li : indexes) {
    fractions.push_back(trials == 0 ? 0.0
                                    : static_cast<double>(admitted[li]) /
                                          static_cast<double>(trials));
  }
  return fractions;
}

}  // namespace socmix::sybil
