// The admission engine's contract:
//
//  * incremental multi-length tails (RouteTable::for_each_tail) are
//    byte-identical to per-length route_tail recomputation, on every
//    Table-1 generator config;
//  * engine sweep fractions equal the pre-engine protocol loop (a fresh
//    Verifier per (verifier, length), suspects admitted in order) exactly,
//    at serial and contended thread counts;
//  * verify_batch commits the same decisions as per-suspect admit() calls
//    and its diagnostics add up;
//  * the verifier cache misses once per node and hits on reuse;
//  * hop accounting: an isolated suspect walks no hops, and verify_batch's
//    stats agree with the sybil.engine.hops_walked counter;
//  * a pack sweeps to the same admitted fractions as the in-memory graph.
#include "sybil/admission_engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "obs/obs.hpp"
#include "sybil/routes.hpp"
#include "sybil/sybil_limit.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace socmix::sybil {
namespace {

namespace fs = std::filesystem;

constexpr graph::NodeId kNodes = 150;
constexpr std::uint64_t kSeed = 0xadceed;

std::vector<graph::NodeId> spread_nodes(const graph::Graph& g, std::size_t count) {
  std::vector<graph::NodeId> nodes;
  const graph::NodeId stride =
      std::max<graph::NodeId>(1, g.num_nodes() / static_cast<graph::NodeId>(count));
  for (graph::NodeId v = 0; nodes.size() < count && v < g.num_nodes(); v += stride) {
    nodes.push_back(v);
  }
  return nodes;
}

TEST(AdmissionEngineParity, MultiLengthTailsByteIdenticalOnEveryTable1Config) {
  const std::vector<std::size_t> lengths{1, 2, 3, 5, 8, 13};
  constexpr std::uint32_t kInstances = 12;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const RouteTable routes{g, kSeed};
    for (const graph::NodeId start : spread_nodes(g, 5)) {
      std::size_t visits = 0;
      routes.for_each_tail(
          kInstances, start, lengths,
          [&](std::size_t k, std::uint32_t i, DirectedEdge tail, graph::EdgeIndex) {
            ++visits;
            const auto expected = routes.route_tail(i, start, lengths[k]);
            ASSERT_TRUE(expected.has_value());
            EXPECT_EQ(tail, *expected) << spec.name << " start=" << start
                                       << " w=" << lengths[k] << " i=" << i;
          });
      EXPECT_EQ(visits, lengths.size() * kInstances) << spec.name << " start=" << start;
    }
  }
}

TEST(AdmissionEngineParity, ZeroAndLeadingLengthsMatchRouteTailSemantics) {
  // A leading zero length has no tail (route_tail's nullopt), in the walk
  // and in the engine's per-length registration buffers.
  const graph::Graph g =
      gen::build_dataset(*gen::find_dataset("Physics 1"), kNodes, 11);
  const RouteTable routes{g, kSeed};
  const std::vector<std::size_t> lengths{0, 1, 4};
  std::vector<std::size_t> visits(lengths.size(), 0);
  routes.for_each_tail(
      8, 3, lengths,
      [&](std::size_t k, std::uint32_t, DirectedEdge, graph::EdgeIndex) { ++visits[k]; });
  EXPECT_EQ(visits, (std::vector<std::size_t>{0, 8, 8}));

  AdmissionEngineConfig config;
  config.instances_override = 8;
  config.seed = kSeed;
  const AdmissionEngine engine{g, config, lengths};
  std::vector<std::vector<DirectedEdge>> multi;
  engine.registration_tails_multi(3, multi);
  ASSERT_EQ(multi.size(), 3u);
  EXPECT_TRUE(multi[0].empty());
  ASSERT_EQ(multi[1].size(), 8u);
  ASSERT_EQ(multi[2].size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(multi[1][i], *routes.route_tail(i, 3, 1)) << i;
    EXPECT_EQ(multi[2][i], *routes.route_tail(i, 3, 4)) << i;
  }
}

/// The pre-engine sweep interior at one route length: a fresh Verifier per
/// (verifier, length), suspects admitted in sample order.
double reference_fraction(const graph::Graph& g, std::size_t w,
                          std::uint32_t instances,
                          std::span<const graph::NodeId> verifiers,
                          std::span<const graph::NodeId> suspects) {
  SybilLimitParams params;
  params.route_length = w;
  params.instances_override = instances;
  params.seed = kSeed;
  const SybilLimit protocol{g, params};
  std::uint64_t admitted = 0;
  for (const graph::NodeId vnode : verifiers) {
    auto verifier = protocol.make_verifier(vnode);
    for (const graph::NodeId suspect : suspects) {
      if (verifier.admit(protocol, suspect)) ++admitted;
    }
  }
  return static_cast<double>(admitted) /
         static_cast<double>(verifiers.size() * suspects.size());
}

TEST(AdmissionEngineParity, SweepFractionsEqualProtocolLoopAcrossThreadsAndModes) {
  const std::vector<std::size_t> lengths{2, 4, 8};
  constexpr std::uint32_t kInstances = 16;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, 120, 7);
    const auto verifiers = spread_nodes(g, 2);
    const auto suspects = spread_nodes(g, 40);

    std::vector<double> reference;
    for (const std::size_t w : lengths) {
      reference.push_back(reference_fraction(g, w, kInstances, verifiers, suspects));
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      util::set_thread_count(threads);
      AdmissionEngineConfig config;
      config.instances_override = kInstances;
      config.seed = kSeed;
      AdmissionEngine engine{g, config, lengths};
      const auto fractions = engine.sweep_fractions(verifiers, suspects, lengths);
      ASSERT_EQ(fractions.size(), reference.size());
      for (std::size_t k = 0; k < reference.size(); ++k) {
        EXPECT_EQ(fractions[k], reference[k])
            << spec.name << " threads=" << threads << " w=" << lengths[k];
      }
      EXPECT_GT(engine.stats().route_hops_saved, 0u) << spec.name;
    }
    util::set_thread_count(0);
  }
}

TEST(AdmissionEngine, VerifyBatchMatchesPerSuspectAdmit) {
  const graph::Graph g =
      gen::build_dataset(*gen::find_dataset("Physics 2"), kNodes, 9);
  const std::vector<std::size_t> lengths{6};
  constexpr std::uint32_t kInstances = 16;
  const graph::NodeId vnode = 0;
  // More suspects than kBatchLanes, so the batch spans multiple blocks.
  const auto suspects = spread_nodes(g, 70);

  SybilLimitParams params;
  params.route_length = lengths[0];
  params.instances_override = kInstances;
  params.seed = kSeed;
  const SybilLimit protocol{g, params};
  auto reference = protocol.make_verifier(vnode);
  std::vector<std::uint8_t> expected;
  for (const graph::NodeId suspect : suspects) {
    expected.push_back(reference.admit(protocol, suspect) ? 1 : 0);
  }

  AdmissionEngineConfig config;
  config.instances_override = kInstances;
  config.seed = kSeed;
  AdmissionEngine engine{g, config, lengths};
  auto& cached = engine.verifier(vnode);
  const auto result = engine.verify_batch(cached, 0, suspects);

  EXPECT_EQ(result.admitted, expected);
  EXPECT_EQ(result.admitted_count, reference.accepted());
  EXPECT_EQ(result.admitted_count + result.rejected_no_intersection +
                result.rejected_balance,
            suspects.size());
  EXPECT_EQ(result.max_tail_load, cached.max_load(0));
  EXPECT_GT(result.balance_bound, 0.0);
  EXPECT_EQ(cached.accepted(0), reference.accepted());
}

TEST(AdmissionEngine, VerifierCacheMissesOnceThenHits) {
  const graph::Graph g =
      gen::build_dataset(*gen::find_dataset("Physics 3"), kNodes, 9);
  AdmissionEngineConfig config;
  config.instances_override = 8;
  config.seed = kSeed;
  const std::vector<std::size_t> lengths{3, 6};
  AdmissionEngine engine{g, config, lengths};

  auto& first = engine.verifier(5);
  EXPECT_EQ(engine.stats().verifier_cache_misses, 1u);
  EXPECT_EQ(&engine.verifier(5), &first);
  EXPECT_EQ(engine.stats().verifier_cache_hits, 1u);
  EXPECT_EQ(engine.stats().verifier_cache_misses, 1u);
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& counter : obs::Registry::instance().snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

TEST(AdmissionEngine, VerifyBatchCountsNoHopsForIsolatedSuspect) {
  // Node 3 is isolated: its walk is empty, so it costs no hops — the
  // accounting sweep_fractions and build_verifier already use — and the
  // batch's hops reach the obs counter as well as stats().
  const graph::Graph g = graph::Graph::from_csr({0, 2, 4, 6, 6}, {1, 2, 0, 2, 0, 1});
  ASSERT_EQ(g.degree(3), 0u);
  AdmissionEngineConfig config;
  config.instances_override = 5;
  config.seed = kSeed;
  const std::vector<std::size_t> lengths{4};
  AdmissionEngine engine{g, config, lengths};
  auto& verifier = engine.verifier(0);
  const std::uint64_t walked_before = engine.stats().route_hops_walked;
  const std::uint64_t counter_before = counter_value("sybil.engine.hops_walked");
  const std::vector<graph::NodeId> suspects{1, 3, 2, 3};
  const auto result = engine.verify_batch(verifier, 0, suspects);
  EXPECT_EQ(result.admitted[1], 0);
  EXPECT_EQ(result.admitted[3], 0);
  EXPECT_EQ(result.rejected_no_intersection, 2u);
  const std::uint64_t walked = engine.stats().route_hops_walked - walked_before;
  EXPECT_EQ(walked, 2u * 5u * 4u);  // two non-isolated suspects, r = 5, w = 4
  EXPECT_EQ(counter_value("sybil.engine.hops_walked") - counter_before, walked);
}

TEST(AdmissionEngine, PackAdmitsLikeInMemory) {
  // A pack is decoded into an ordinary CSR when it is opened, so the
  // admission sweep runs on it — and admits exactly what it admits on the
  // graph in memory.
  const graph::Graph g =
      gen::build_dataset(*gen::find_dataset("Physics 1"), kNodes, 9);
  AdmissionSweepConfig sweep;
  sweep.route_lengths = {2, 4, 8};
  sweep.suspect_sample = 40;
  sweep.verifier_sample = 2;
  const auto fractions = [&](const graph::Graph& graph) {
    std::vector<double> out;
    for (const AdmissionPoint& p : admission_sweep(graph, sweep)) {
      out.push_back(p.admitted_fraction);
    }
    return out;
  };
  const fs::path path = fs::path{testing::TempDir()} / "admission_pack.smxg";
  graph::sharded::write_smxg_file(path.string(), g);
  {
    const graph::sharded::MappedGraph pack{path.string()};
    EXPECT_EQ(fractions(pack.view()), fractions(g));
  }
  fs::remove(path);
}

TEST(AdmissionEngine, InstancesSharingATailEdgeShareOneLoadCounter) {
  // Two nodes, one edge: every route, at every length, ends on that edge,
  // so r instances collapse to a single load counter — in the protocol
  // verifier and in the engine's cached index.
  graph::EdgeList edges;
  edges.add(0, 1);
  const graph::Graph g = graph::Graph::from_edges(std::move(edges));

  SybilLimitParams params;
  params.route_length = 4;
  params.instances_override = 8;
  params.seed = kSeed;
  const SybilLimit protocol{g, params};
  EXPECT_EQ(protocol.make_verifier(0).distinct_tails(), 1u);

  AdmissionEngineConfig config;
  config.instances_override = 8;
  config.seed = kSeed;
  const std::vector<std::size_t> lengths{2, 4};
  AdmissionEngine engine{g, config, lengths};
  const auto& cached = engine.verifier(0);
  EXPECT_EQ(cached.distinct_tails(0), 1u);
  EXPECT_EQ(cached.distinct_tails(1), 1u);
}

TEST(AdmissionEngine, SweepStatsReportPhaseSplit) {
  const graph::Graph g =
      gen::build_dataset(*gen::find_dataset("Physics 1"), kNodes, 9);
  AdmissionSweepConfig config;
  config.route_lengths = {2, 4, 8};
  config.suspect_sample = 30;
  config.verifier_sample = 2;
  AdmissionEngineStats stats;
  config.engine_stats = &stats;
  (void)admission_sweep(g, config);
  EXPECT_GT(stats.route_hops_walked, 0u);
  EXPECT_GT(stats.route_hops_saved, 0u);
  EXPECT_EQ(stats.verifier_cache_misses, 2u);  // one per verifier
  EXPECT_GE(stats.precompute_seconds, 0.0);
  EXPECT_GT(stats.queries, 0u);
}

}  // namespace
}  // namespace socmix::sybil
