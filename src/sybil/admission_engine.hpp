// Cached SybilLimit admission engine.
//
// admission_sweep answers the same question over and over: "does suspect
// S intersect verifier V's registered tails within the balance bound, at
// route length w?" The run-to-completion sweep re-walked every route from
// scratch for every (verifier, suspect, w) triple. This engine is the
// reusable replacement, built on three observations:
//
//  1. Incremental tail extension. SybilLimit routes are deterministic:
//     the length-w tail is hop w of the *same* route, so a sweep over
//     lengths {w_1 < ... < w_k} needs one walk to w_k per (node,
//     instance), recording the tail at every requested length
//     (RouteTable::for_each_tail) — O(w_max) route hops instead of
//     O(sum of w_i).
//
//  2. Cached verifiers. A verifier's tails depend only on (graph,
//     protocol seed, r, w), all fixed for the engine's lifetime. The
//     engine walks them once and files them in one inverted tail
//     directory per length — tail half-edge -> the contiguous run of
//     (verifier slot, load-counter index) entries of every cached verifier
//     holding that tail — shared across every suspect, batch and sweep
//     point. The directory is a bitmap over the graph's half-edges with
//     both directions of every filed tail set, so a suspect tail no
//     verifier holds (most of them) costs one bit test; only a hit ranks
//     the bit to reach its run. Balance counters (the only mutable part)
//     live in the verifier, so queries can accumulate or reset without
//     touching the directory.
//
//  3. Batched queries. verify_batch() and sweep_fractions() group
//     suspects into kBatchLanes-wide blocks: each lane walks its suspect's
//     tails and probes the directory once per tail, which yields every
//     verifier's candidate load counters at once, in suspect-tail order
//     (util::parallel_for, disjoint per-lane slots, read-only directory).
//     Only the argmin, bound check and commit replay serially, in suspect
//     order — which is what makes the results independent of batching and
//     threading, and bit-identical to the protocol's admit() loop.
//
// The graph must not change while an engine walks it.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "sybil/routes.hpp"
#include "util/aligned.hpp"
#include "util/retired_knob.hpp"

namespace socmix::sybil {

struct AdmissionEngineConfig : ProtocolParams {
  /// Retired (--frontier is refused): routes always walk hop-major.
  /// perfbench/ still copies this field; delete it with the next benchmark
  /// change.
  util::RetiredKnob frontier;
};

/// Plain mirror of the sybil.engine.* obs counters, always available (obs
/// may be compiled out) so drivers can report precompute-vs-query splits.
struct AdmissionEngineStats {
  std::uint64_t route_hops_walked = 0;  ///< hops actually walked
  std::uint64_t route_hops_saved = 0;   ///< per-length-rewalk baseline minus walked
  std::uint64_t verifier_cache_hits = 0;
  std::uint64_t verifier_cache_misses = 0;
  std::uint64_t queries = 0;  ///< (verifier, suspect, length) admit decisions
  double precompute_seconds = 0.0;  ///< verifier index construction
  double query_seconds = 0.0;       ///< batched suspect verification
};

class AdmissionEngine {
 public:
  /// Fixed block width of the batched verify path (suspect tails for one
  /// block are computed in parallel before the serial balance commits).
  static constexpr std::size_t kBatchLanes = 32;

  /// `route_lengths` is the set of lengths this engine serves (a Fig.-8
  /// sweep grid, or a single operating point for a service); duplicates
  /// and ordering are normalized internally.
  AdmissionEngine(const graph::Graph& g, const AdmissionEngineConfig& config,
                  std::span<const std::size_t> route_lengths);

  [[nodiscard]] const graph::Graph& graph() const noexcept { return routes_.graph(); }
  [[nodiscard]] const AdmissionEngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t instances() const noexcept { return instances_; }
  /// Sorted, deduplicated lengths the caches are keyed under.
  [[nodiscard]] std::span<const std::size_t> route_lengths() const noexcept {
    return lengths_;
  }

  /// Per-verifier resident state: per-length balance counters, one per
  /// distinct tail edge, which queries commit to. The tails themselves are
  /// filed in the engine's tail directory.
  class CachedVerifier {
   public:
    [[nodiscard]] graph::NodeId node() const noexcept { return node_; }
    /// Distinct undirected tail edges indexed at length index `li`
    /// (several instances sharing a tail edge share one load counter).
    [[nodiscard]] std::size_t distinct_tails(std::size_t li) const {
      return state_[li].load.size();
    }
    [[nodiscard]] std::uint64_t accepted(std::size_t li) const {
      return state_[li].accepted;
    }
    /// Largest single-tail load at length index `li` — the balance-bound
    /// headroom diagnostic verify_batch also reports.
    [[nodiscard]] std::uint64_t max_load(std::size_t li) const;

    /// Zeroes the balance counters (accepted + per-tail loads) at every
    /// length; the tail indexes are untouched. A sweep point starts here.
    void reset_balance();

   private:
    friend class AdmissionEngine;
    struct PerLength {
      /// Distinct canonical tail half-edges (min(e, twin(e))), ascending;
      /// tail j owns load[j]. Held only until the engine files them in
      /// its tail directory.
      std::vector<graph::EdgeIndex> unfiled_tails;
      std::vector<std::uint64_t> load;
      std::uint64_t accepted = 0;
    };
    graph::NodeId node_ = graph::kInvalidNode;
    std::uint32_t slot_ = 0;  ///< this verifier's id in the tail directory
    std::vector<PerLength> state_;  ///< parallel to engine route_lengths()
  };

  /// The cached verifier for `node`: one multi-length route walk on first
  /// use (sybil.engine.verifier_cache_misses), a map lookup afterwards
  /// (…_hits). Its tails join the tail directory before the next query.
  /// The reference stays valid for the engine's lifetime.
  CachedVerifier& verifier(graph::NodeId node);

  /// Suspect-side registration tails at every engine length from one
  /// incremental walk; out[k] aligns with route_lengths()[k].
  void registration_tails_multi(graph::NodeId suspect,
                                std::vector<std::vector<DirectedEdge>>& out) const;

  /// Per-batch accept/reject plus balance-load diagnostics.
  struct BatchResult {
    /// Accept/reject per suspect, in input order.
    std::vector<std::uint8_t> admitted;
    std::uint64_t admitted_count = 0;
    std::uint64_t rejected_no_intersection = 0;
    std::uint64_t rejected_balance = 0;
    /// Largest single-tail load after the batch committed.
    std::uint64_t max_tail_load = 0;
    /// Balance bound b = h * max(log r, (accepted+1)/r) after the batch.
    double balance_bound = 0.0;
  };

  /// Verifies a batch of suspects against `v` at length index `li`,
  /// committing balance-counter updates in suspect order. Suspect tails
  /// are walked and probed in kBatchLanes-wide parallel blocks; results
  /// are bit-identical to calling the protocol's admit() per suspect in
  /// the same order, for any thread count.
  BatchResult verify_batch(CachedVerifier& v, std::size_t li,
                           std::span<const graph::NodeId> suspects);

  /// The sweep interior admission_sweep drives: admitted fraction per
  /// entry of `lengths` (each must be one of route_lengths(); balance
  /// state is reset per length, matching a fresh per-point verifier).
  /// Suspect tails at *all* requested lengths come from one incremental
  /// walk per suspect, shared across every verifier — the O(sum w) ->
  /// O(w_max) collapse. A node repeated in `verifiers` shares one
  /// CachedVerifier and is counted once per entry: for each suspect the
  /// entries admit in span order against the shared balance state.
  [[nodiscard]] std::vector<double> sweep_fractions(
      std::span<const graph::NodeId> verifiers,
      std::span<const graph::NodeId> suspects, std::span<const std::size_t> lengths);

  /// Cumulative engine statistics (also mirrored to sybil.engine.* obs
  /// metrics as they accrue).
  [[nodiscard]] const AdmissionEngineStats& stats() const noexcept { return stats_; }

  /// Inverted tail directory for one route length: the half-edge a tail
  /// crossed -> the contiguous run of entries of every cached verifier
  /// holding that tail, the same run for either direction. A bitmap over
  /// the graph's 2m half-edges marks both directions of every filed tail;
  /// a probe tests one bit, and only a hit ranks it (a popcount prefix per
  /// 512-bit block, 1/16 of the bitmap, plus at most eight word popcounts
  /// within the block's one cache line) to index its run. Heap per length:
  /// 2m * (1 + 1/16) bits, plus 8 B per marked half-edge and 8 B per
  /// entry. Only read while lanes probe it in parallel.
  class TailDirectory {
   public:
    struct Entry {
      std::uint32_t slot;  ///< verifier slot
      std::uint32_t load;  ///< that verifier's load-counter index
    };
    struct Posting {
      graph::EdgeIndex edge;  ///< canonical tail half-edge, min(e, twin(e))
      Entry entry;
    };
    /// A directory over `routes`' half-edges that has filed nothing.
    explicit TailDirectory(const RouteTable& routes);
    /// The run of the tail that crossed half-edge `e`, in either
    /// direction; empty when no cached verifier holds that tail.
    [[nodiscard]] std::span<const Entry> find(graph::EdgeIndex e) const noexcept {
      if (((bits_[e >> 6] >> (e & 63)) & 1) == 0) return {};
      const Run run = runs_[rank(e)];
      return {entries_.data() + run.begin, entries_.data() + run.end};
    }
    /// Appends every filed (canonical half-edge, entry) pair to `out`.
    void postings(std::vector<Posting>& out) const;
    /// Replaces the contents with `postings` (sorted in place), marking
    /// both directions of each tail; `routes` must be the constructor's.
    void assign(std::vector<Posting>& postings, const RouteTable& routes);
    /// Filed entries.
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    /// Heap the directory holds.
    [[nodiscard]] std::size_t heap_bytes() const noexcept;

   private:
    struct Run {
      std::uint32_t begin;
      std::uint32_t end;
    };
    static constexpr std::size_t kBlockWords = 8;  ///< 512 bits, one cache line
    /// Marked half-edges before `e`.
    [[nodiscard]] std::size_t rank(graph::EdgeIndex e) const noexcept;

    /// Bit e set iff a filed tail crossed half-edge e in either direction.
    std::vector<std::uint64_t, util::AlignedAlloc<std::uint64_t>> bits_;
    std::vector<std::uint32_t> block_rank_;  ///< marked bits before each block
    std::vector<Run> runs_;                  ///< per marked bit, in bit order
    std::vector<Entry> entries_;  ///< runs in canonical half-edge order
  };

  /// The directory filed at length index `li` (read-only).
  [[nodiscard]] const TailDirectory& directory(std::size_t li) const {
    return directory_[li];
  }

 private:
  void build_verifier(CachedVerifier& v, graph::NodeId node);
  /// Files the tails of verifiers built since the last call in every
  /// length's directory; a no-op when none were.
  void file_new_verifiers();
  /// One admit decision against v.state_[li], given the verifier's load
  /// counters the suspect's tails hit, in suspect-tail order; the
  /// engine-side twin of SybilLimit::Verifier::admit.
  bool commit(CachedVerifier& v, std::size_t li,
              std::span<const std::uint32_t> candidates, BatchResult* diagnostics);
  /// Route hops a suspect walk to `length` costs (0 from an isolated node).
  [[nodiscard]] std::uint64_t hops_to(graph::NodeId start, std::size_t length) const;
  [[nodiscard]] std::size_t length_index(std::size_t w) const;
  [[nodiscard]] std::uint64_t naive_hops_per_node() const noexcept;

  RouteTable routes_;
  AdmissionEngineConfig config_;
  std::uint32_t instances_ = 0;
  double log_r_ = 0.0;  ///< log(instances_), the balance bound's floor
  std::vector<std::size_t> lengths_;  ///< sorted, deduplicated
  std::unordered_map<graph::NodeId, CachedVerifier> verifiers_;
  std::vector<CachedVerifier*> slots_;      ///< slot -> verifier, in build order
  std::size_t filed_slots_ = 0;             ///< slots_ prefix the directory holds
  std::vector<TailDirectory> directory_;    ///< parallel to lengths_
  AdmissionEngineStats stats_;
};

}  // namespace socmix::sybil
