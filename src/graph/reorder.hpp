// Locality-aware vertex ordering, applied once at pack time.
//
// Every hot kernel in the pipeline is a sparse gather over the CSR: per
// edge (i, j) it loads a value keyed by the *label* of the neighbor. The
// labels a generator or crawl happens to assign are arbitrary, so those
// gathers stride through a multi-MB array with no reuse. Relabeling the
// graph so that adjacent vertices get nearby labels turns the same gather
// stream into one with strong temporal locality — the standard
// cache-blocking lever for irregular SpMV/SpMM workloads.
//
// The ordering is reverse Cuthill-McKee: per-component BFS from a
// pseudo-peripheral start, neighbors in ascending-degree order, reversed.
// It minimizes (heuristically) the matrix bandwidth. The ordering is a
// property of the stored graph, not of a measurement: `graph_pack
// --reorder rcm` bakes it into a .smxg container, and every run on that
// container computes under it.
//
// The permutation is a deterministic function of the graph alone and maps
// OLD label -> NEW label; apply_permutation produces a relabeled Graph
// whose adjacency lists are sorted, so the result upholds every Graph
// invariant and kernels run on it unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace socmix::graph {

/// The reverse Cuthill-McKee permutation (perm[old] = new).
/// Deterministic in the graph alone.
[[nodiscard]] std::vector<NodeId> rcm_permutation(const Graph& g);

/// Inverse permutation: out[perm[v]] = v. Throws std::invalid_argument if
/// `perm` is not a bijection on [0, perm.size()).
[[nodiscard]] std::vector<NodeId> invert_permutation(std::span<const NodeId> perm);

/// Relabels `g` under `perm` (old -> new): vertex v becomes perm[v], each
/// adjacency list is re-sorted ascending. The result satisfies all Graph
/// invariants; applying `invert_permutation(perm)` round-trips to a CSR
/// bit-identical to the original. Throws if perm is not a bijection of
/// size num_nodes().
[[nodiscard]] Graph apply_permutation(const Graph& g, std::span<const NodeId> perm);

/// A deterministic pseudo-random permutation of [0, n) seeded by `seed` —
/// the "crawl order" null model benches and tests use to simulate the
/// arbitrary labeling of real edge-list datasets.
[[nodiscard]] std::vector<NodeId> shuffle_permutation(NodeId n, std::uint64_t seed);

/// How label-local a CSR layout is: the mean |i - j| over all half-edges
/// (what the gather working set tracks) and the max (the bandwidth).
struct LocalityStats {
  double avg_neighbor_distance = 0.0;
  std::uint64_t bandwidth = 0;
};
[[nodiscard]] LocalityStats locality_stats(const Graph& g) noexcept;

}  // namespace socmix::graph
