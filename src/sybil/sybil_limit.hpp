// SybilLimit (Yu, Gibbons, Kaminsky, Xiao — Oakland 2008), from scratch.
//
// The paper's §5 "Performance Implications" experiment: run SybilLimit on
// measured social graphs, grow the route length w until a verifier accepts
// (almost) all honest suspects, and observe how much larger that w is than
// the w = O(log n) the original scheme assumed — the operational cost of
// slow mixing. The number of Sybil identities accepted is bounded by g*w
// (g = attack edges), so every extra hop of w is paid in security.
//
// Protocol summary as implemented:
//  * System-wide: r protocol instances of random routes (routes.hpp),
//    r = r0 * sqrt(m) chosen by the birthday paradox.
//  * Registration: suspect S runs one route of length w per instance; the
//    tail (last edge) of each is where S "registers".
//  * Verification: verifier V runs its own r routes; V accepts S iff
//      - intersection: some V tail equals some S tail (as undirected
//        edges), and
//      - balance: the accepted suspect is assigned to its least-loaded
//        intersecting V-tail, whose load must stay within
//        b = balance_factor * max(log r, (accepted+1)/r).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "sybil/admission_engine.hpp"
#include "sybil/routes.hpp"

namespace socmix::sybil {

struct SybilLimitParams : ProtocolParams {
  /// Route length w (the knob the paper sweeps in Fig. 8).
  std::size_t route_length = 10;
};

/// Per-verifier protocol state over one honest social graph.
class SybilLimit {
 public:
  SybilLimit(const graph::Graph& g, const SybilLimitParams& params);

  /// Number of instances r actually in use.
  [[nodiscard]] std::uint32_t instances() const noexcept { return instances_; }
  [[nodiscard]] const SybilLimitParams& params() const noexcept { return params_; }

  /// The suspect-side registration tails for `node` (one per instance;
  /// instances whose route dead-ends are omitted).
  [[nodiscard]] std::vector<DirectedEdge> registration_tails(graph::NodeId node) const;

  /// A verifier's accumulated accept/deny state (balance counters).
  class Verifier {
   public:
    /// True if the verifier would accept this suspect, *and* commits the
    /// balance-counter increment when accepted.
    [[nodiscard]] bool admit(const SybilLimit& protocol, graph::NodeId suspect);

    /// Intersection-only test (no balance bookkeeping, no state change).
    [[nodiscard]] bool intersects(const SybilLimit& protocol,
                                  graph::NodeId suspect) const;

    [[nodiscard]] graph::NodeId node() const noexcept { return node_; }
    [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }
    /// Number of distinct undirected tail edges (= load counters); several
    /// instances sharing a tail edge share one counter.
    [[nodiscard]] std::size_t distinct_tails() const noexcept { return load_.size(); }

   private:
    friend class SybilLimit;
    graph::NodeId node_ = graph::kInvalidNode;
    /// V's tail keys -> index into load counters (several instances can
    /// share a tail edge).
    std::unordered_map<std::uint64_t, std::uint32_t> tail_index_;
    std::vector<std::uint64_t> load_;
    std::uint64_t accepted_ = 0;
  };

  /// Prepares a verifier: runs its r routes and indexes the tails.
  [[nodiscard]] Verifier make_verifier(graph::NodeId node) const;

  [[nodiscard]] const graph::Graph& graph() const noexcept { return routes_.graph(); }
  [[nodiscard]] const RouteTable& routes() const noexcept { return routes_; }

 private:
  RouteTable routes_;
  SybilLimitParams params_;
  std::uint32_t instances_ = 0;
};

/// Fig. 8 experiment: fraction of sampled honest suspects admitted by a
/// verifier, per route length.
struct AdmissionPoint {
  std::size_t route_length = 0;
  double admitted_fraction = 0.0;
};

/// The Fig.-8 sweep: the engine's protocol parameters and walk order,
/// plus the grid and the samples.
struct AdmissionSweepConfig : AdmissionEngineConfig {
  /// `seed` is the sampling seed *and* the one protocol seed shared by
  /// every route length (see ProtocolParams::seed); the sweep defaults it
  /// to the IMC'10 conference date.
  AdmissionSweepConfig() { seed = 20101101; }

  std::vector<std::size_t> route_lengths;
  /// Suspects sampled per point (0 = every vertex).
  std::size_t suspect_sample = 300;
  /// Verifiers averaged per point; admission_sweep throws on 0.
  std::size_t verifier_sample = 3;
  /// When non-null, receives the engine's cumulative statistics for the
  /// sweep (route hops walked/saved, verifier-cache traffic, precompute vs
  /// query seconds) so drivers can report phase splits.
  AdmissionEngineStats* engine_stats = nullptr;
};

/// Fig. 8 experiment driver. Thin: samples suspects/verifiers, then hands
/// the whole route-length grid to an AdmissionEngine, which serves every
/// point from one incremental O(w_max) walk per node instead of
/// per-length rewalks.
[[nodiscard]] std::vector<AdmissionPoint> admission_sweep(const graph::Graph& g,
                                                          const AdmissionSweepConfig& config);

}  // namespace socmix::sybil
