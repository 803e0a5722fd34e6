// Synthetic stand-ins for the paper's Table 1 datasets.
//
// The original crawls (Facebook, LiveJournal, DBLP, physics co-authorship,
// Enron, Epinion, Slashdot, Wiki-vote, Youtube) are not redistributable and
// not available offline, so each dataset is replaced by a generator config
// that matches what drives the paper's findings:
//   * size class (n, average degree),
//   * structural class — expander-like online social networks (fast
//     mixing) vs. community-heavy collaboration/interaction networks
//     (slow mixing),
//   * and, for the slow class, the sparse inter-community cuts that pin
//     the SLEM near 1.
//
// The per-dataset `paper_mixing_class` records the qualitative behaviour
// the paper reports (its Table 1 mu column and Figs 1-2), which
// EXPERIMENTS.md compares against our measured values. Paper-scale node
// counts are kept in the spec; benches build them at a reduced
// `default_nodes` so every figure regenerates on one core in minutes.
// --scale multiplies `default_nodes`, so paper-scale n takes
// paper_nodes / default_nodes (10 for the 1M-node sets).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace socmix::gen {

/// Structural family of a stand-in generator.
enum class Family {
  kBarabasiAlbert,     ///< expander-like OSN core, power-law degrees
  kPowerlawCluster,    ///< power-law + high clustering (Holme-Kim)
  kCommunityPowerlaw,  ///< Holme-Kim blocks joined by sparse cuts
  kWattsStrogatz,      ///< lattice-ish interaction graph
};

/// Qualitative mixing class the paper reports for the original dataset.
enum class MixingClass { kFast, kModerate, kSlow };

struct DatasetSpec {
  std::string name;            ///< paper's dataset name, e.g. "Physics 1"
  std::string citation;        ///< paper's source, e.g. "ca-GrQc [9]"
  std::uint64_t paper_nodes;   ///< n in Table 1
  std::uint64_t paper_edges;   ///< m in Table 1
  MixingClass paper_mixing_class;
  Family family;

  // Generator parameters (interpreted per family):
  double avg_degree;        ///< target mean degree (sets attach / k)
  double clustering;        ///< p_triangle (HK) or rewiring beta (WS)
  graph::NodeId block_size; ///< community size for kCommunityPowerlaw
  double inter_block_links; ///< inter-community edges per block (sparse cut knob)
  /// Fraction of each community that is low-degree "pendant" members (1-3
  /// edges into the community core). Collaboration graphs like DBLP are
  /// mostly such one-paper authors — which is exactly what SybilGuard-style
  /// trimming removes (paper Fig. 6: DBLP shrinks 615K -> 145K by degree-5
  /// trimming). 0 for datasets without that structure.
  double pendant_fraction = 0.0;

  /// Node count the default bench runs use (paper-scale for small sets,
  /// scaled-down for the 1M-node sets).
  graph::NodeId default_nodes;
};

/// All 15 Table-1 dataset stand-ins, in the paper's row order.
[[nodiscard]] const std::vector<DatasetSpec>& table1_datasets();

/// Looks a spec up by (case-insensitive) name; nullopt if unknown.
[[nodiscard]] std::optional<DatasetSpec> find_dataset(const std::string& name);

/// Builds a stand-in at `nodes` vertices (0 = spec.default_nodes). The
/// result is the largest connected component, so it is directly usable by
/// the measurement pipeline. Deterministic in (spec, nodes, seed).
[[nodiscard]] graph::Graph build_dataset(const DatasetSpec& spec, graph::NodeId nodes,
                                         std::uint64_t seed);

/// Composite generator behind Family::kCommunityPowerlaw, exposed for
/// direct use: `blocks` communities of `block_size` vertices, joined by
/// `links_per_block` random inter-community edges per block (>= 1 keeps the
/// block graph connected). Each community is a Holme-Kim core
/// (attach/p_triangle as in powerlaw_cluster) of the first
/// (1 - pendant_fraction) * block_size vertices, plus pendant members with
/// 1-3 random links into that core.
[[nodiscard]] graph::Graph community_powerlaw(graph::NodeId blocks, graph::NodeId block_size,
                                              graph::NodeId attach, double p_triangle,
                                              double links_per_block, util::Rng& rng,
                                              double pendant_fraction = 0.0);

}  // namespace socmix::gen
