#include "gen/datasets.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "gen/barabasi_albert.hpp"
#include "gen/powerlaw_cluster.hpp"
#include "gen/watts_strogatz.hpp"
#include "graph/components.hpp"
#include "util/string_util.hpp"

namespace socmix::gen {

using graph::EdgeList;
using graph::Graph;
using graph::NodeId;

namespace {

/// Table 1 of the paper, with each row mapped to a generator recipe.
/// paper_nodes/paper_edges are the published dataset sizes; the mixing
/// class encodes what Figs 1-2 show for that dataset (collaboration and
/// interaction graphs slow; OSN friendship graphs fast to moderate).
std::vector<DatasetSpec> make_table1() {
  std::vector<DatasetSpec> specs;

  const auto add = [&](DatasetSpec spec) { specs.push_back(std::move(spec)); };

  // --- small datasets (Fig 1) -------------------------------------------
  add({.name = "Wiki-vote", .citation = "wiki-Vote [8]",
       .paper_nodes = 7'066, .paper_edges = 100'736,
       .paper_mixing_class = MixingClass::kFast,
       .family = Family::kWattsStrogatz,
       .avg_degree = 28.0, .clustering = 0.18, .block_size = 0,
       .inter_block_links = 0.0, .default_nodes = 7'066});

  add({.name = "Slashdot 2", .citation = "soc-Slashdot0902 [10]",
       .paper_nodes = 82'168, .paper_edges = 582'533,
       .paper_mixing_class = MixingClass::kModerate,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 14.0, .clustering = 0.35, .block_size = 1'000,
       .inter_block_links = 220.0, .default_nodes = 40'000});

  add({.name = "Slashdot 1", .citation = "soc-Slashdot0811 [10]",
       .paper_nodes = 77'360, .paper_edges = 546'487,
       .paper_mixing_class = MixingClass::kModerate,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 14.0, .clustering = 0.35, .block_size = 1'000,
       .inter_block_links = 200.0, .default_nodes = 40'000});

  add({.name = "Facebook", .citation = "Facebook New Orleans [26]",
       .paper_nodes = 63'731, .paper_edges = 817'090,
       .paper_mixing_class = MixingClass::kFast,
       .family = Family::kWattsStrogatz,
       .avg_degree = 26.0, .clustering = 0.12, .block_size = 0,
       .inter_block_links = 0.0, .default_nodes = 40'000});

  add({.name = "Physics 1", .citation = "ca-GrQc [9]",
       .paper_nodes = 4'158, .paper_edges = 13'422,
       .paper_mixing_class = MixingClass::kSlow,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 6.5, .clustering = 0.8, .block_size = 260,
       .inter_block_links = 8.0, .default_nodes = 4'160});

  add({.name = "Physics 2", .citation = "ca-HepPh [9]",
       .paper_nodes = 11'204, .paper_edges = 117'619,
       .paper_mixing_class = MixingClass::kSlow,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 21.0, .clustering = 0.85, .block_size = 400,
       .inter_block_links = 24.0, .default_nodes = 11'200});

  add({.name = "Physics 3", .citation = "ca-HepTh [9]",
       .paper_nodes = 8'638, .paper_edges = 24'806,
       .paper_mixing_class = MixingClass::kSlow,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 5.7, .clustering = 0.75, .block_size = 300,
       .inter_block_links = 8.0, .default_nodes = 8'700});

  add({.name = "Enron", .citation = "email-Enron [9]",
       .paper_nodes = 33'696, .paper_edges = 180'811,
       .paper_mixing_class = MixingClass::kSlow,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 10.7, .clustering = 0.6, .block_size = 800,
       .inter_block_links = 32.0, .default_nodes = 33'600});

  add({.name = "Epinion", .citation = "soc-Epinions1 [20]",
       .paper_nodes = 75'877, .paper_edges = 405'739,
       .paper_mixing_class = MixingClass::kSlow,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 10.7, .clustering = 0.5, .block_size = 1'000,
       .inter_block_links = 40.0, .default_nodes = 40'000});

  // --- large datasets (Fig 2) -------------------------------------------
  // DBLP's defining trait for the paper's Fig. 6: a dense co-authorship
  // core surrounded by a majority of low-degree authors, so degree-trimming
  // removes most of the graph (615K -> 145K) while speeding up mixing.
  // avg_degree 10 sets the *core* attachment (attach = 5, so the 5-core
  // survives trimming); pendants pull the realized mean degree down to ~6.
  add({.name = "DBLP", .citation = "DBLP [13]",
       .paper_nodes = 614'981, .paper_edges = 1'155'148,
       .paper_mixing_class = MixingClass::kSlow,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 10.0, .clustering = 0.7, .block_size = 500,
       .inter_block_links = 8.0, .pendant_fraction = 0.6,
       .default_nodes = 100'000});

  add({.name = "Facebook A", .citation = "Facebook regional A [28]",
       .paper_nodes = 1'000'000, .paper_edges = 20'353'734,
       .paper_mixing_class = MixingClass::kModerate,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 40.0, .clustering = 0.3, .block_size = 2'000,
       .inter_block_links = 800.0, .default_nodes = 100'000});

  add({.name = "Facebook B", .citation = "Facebook regional B [28]",
       .paper_nodes = 1'000'000, .paper_edges = 15'807'563,
       .paper_mixing_class = MixingClass::kModerate,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 32.0, .clustering = 0.3, .block_size = 2'000,
       .inter_block_links = 640.0, .default_nodes = 100'000});

  add({.name = "Livejournal A", .citation = "LiveJournal A [14]",
       .paper_nodes = 1'000'000, .paper_edges = 26'151'771,
       .paper_mixing_class = MixingClass::kSlow,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 52.0, .clustering = 0.6, .block_size = 2'000,
       .inter_block_links = 64.0, .default_nodes = 100'000});

  add({.name = "Livejournal B", .citation = "LiveJournal B [14]",
       .paper_nodes = 1'000'000, .paper_edges = 27'562'349,
       .paper_mixing_class = MixingClass::kSlow,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 55.0, .clustering = 0.6, .block_size = 2'000,
       .inter_block_links = 72.0, .default_nodes = 100'000});

  add({.name = "Youtube", .citation = "Youtube [14]",
       .paper_nodes = 1'134'890, .paper_edges = 2'987'624,
       .paper_mixing_class = MixingClass::kModerate,
       .family = Family::kCommunityPowerlaw,
       .avg_degree = 5.3, .clustering = 0.3, .block_size = 1'000,
       .inter_block_links = 20.0, .default_nodes = 100'000});

  return specs;
}

}  // namespace

const std::vector<DatasetSpec>& table1_datasets() {
  static const std::vector<DatasetSpec> specs = make_table1();
  return specs;
}

std::optional<DatasetSpec> find_dataset(const std::string& name) {
  const std::string wanted = util::to_lower(name);
  for (const DatasetSpec& spec : table1_datasets()) {
    if (util::to_lower(spec.name) == wanted) return spec;
  }
  return std::nullopt;
}

Graph community_powerlaw(NodeId blocks, NodeId block_size, NodeId attach,
                         double p_triangle, double links_per_block, util::Rng& rng,
                         double pendant_fraction) {
  if (blocks < 1 || block_size <= attach || links_per_block < 0.0 ||
      pendant_fraction < 0.0 || pendant_fraction >= 1.0) {
    throw std::invalid_argument{
        "community_powerlaw: need blocks >= 1, block_size > attach, links >= 0, "
        "pendant_fraction in [0, 1)"};
  }
  const auto pendants = static_cast<NodeId>(pendant_fraction * block_size);
  const NodeId core_size = block_size - pendants;
  if (core_size <= attach) {
    throw std::invalid_argument{
        "community_powerlaw: pendant_fraction leaves core <= attach"};
  }

  EdgeList edges{static_cast<NodeId>(blocks * block_size)};

  // Each block: a Holme-Kim core on its first core_size ids, plus pendant
  // members with 1-3 links into random core vertices.
  for (NodeId b = 0; b < blocks; ++b) {
    const NodeId base = b * block_size;
    util::Rng block_rng = rng.fork();
    const Graph block = powerlaw_cluster(core_size, attach, p_triangle, block_rng);
    for (NodeId u = 0; u < core_size; ++u) {
      for (const NodeId v : block.neighbors(u)) {
        if (u < v) edges.add(base + u, base + v);
      }
    }
    for (NodeId p = 0; p < pendants; ++p) {
      const NodeId pendant = base + core_size + p;
      const auto degree = static_cast<NodeId>(1 + block_rng.below(4));
      for (NodeId d = 0; d < degree; ++d) {
        edges.add(pendant, base + static_cast<NodeId>(block_rng.below(core_size)));
      }
    }
  }

  // Sparse inter-community cut: every block gets ceil(links_per_block)
  // random edges to earlier blocks (block 1..B-1), guaranteeing a connected
  // block tree while keeping the cut volume — and hence the conductance —
  // as low as the knob dictates.
  // Bridges originate from core members (in collaboration graphs the
  // prolific authors are the ones spanning communities) — so trimming the
  // pendant fringe does not disconnect the block graph.
  const auto links = static_cast<NodeId>(std::max(1.0, std::ceil(links_per_block)));
  for (NodeId b = 1; b < blocks; ++b) {
    for (NodeId l = 0; l < links; ++l) {
      const auto other = static_cast<NodeId>(rng.below(b));
      const auto u = static_cast<NodeId>(b * block_size + rng.below(core_size));
      const auto v = static_cast<NodeId>(other * block_size + rng.below(core_size));
      edges.add(u, v);
    }
  }
  return Graph::from_edges(std::move(edges));
}

Graph build_dataset(const DatasetSpec& spec, NodeId nodes, std::uint64_t seed) {
  const NodeId n = nodes == 0 ? spec.default_nodes : nodes;
  util::Rng rng{util::hash_combine(seed, std::hash<std::string>{}(spec.name))};

  Graph raw;
  switch (spec.family) {
    case Family::kBarabasiAlbert: {
      const auto attach =
          static_cast<NodeId>(std::max(1.0, std::round(spec.avg_degree / 2.0)));
      raw = barabasi_albert(n, attach, rng);
      break;
    }
    case Family::kPowerlawCluster: {
      const auto attach =
          static_cast<NodeId>(std::max(1.0, std::round(spec.avg_degree / 2.0)));
      raw = powerlaw_cluster(n, attach, spec.clustering, rng);
      break;
    }
    case Family::kCommunityPowerlaw: {
      const NodeId block_size = spec.block_size;
      const auto blocks = static_cast<NodeId>(
          std::max<std::uint64_t>(1, (static_cast<std::uint64_t>(n) + block_size - 1) /
                                         block_size));
      const auto attach =
          static_cast<NodeId>(std::max(1.0, std::round(spec.avg_degree / 2.0)));
      raw = community_powerlaw(blocks, block_size, attach, spec.clustering,
                               spec.inter_block_links, rng, spec.pendant_fraction);
      break;
    }
    case Family::kWattsStrogatz: {
      auto k = static_cast<NodeId>(std::max(2.0, std::round(spec.avg_degree)));
      if (k % 2 != 0) ++k;
      raw = watts_strogatz(n, k, spec.clustering, rng);
      break;
    }
  }
  // The measurement pipeline needs a connected graph (paper §4).
  return graph::largest_component(std::move(raw)).graph;
}

}  // namespace socmix::gen
