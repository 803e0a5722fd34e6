#include "sybil/sybil_limit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "graph/components.hpp"
#include "sybil/attack.hpp"
#include "util/rng.hpp"

namespace socmix::sybil {
namespace {

graph::Graph expander(graph::NodeId n, std::uint64_t seed) {
  util::Rng rng{seed};
  return graph::largest_component(
             gen::erdos_renyi_gnm(n, static_cast<std::uint64_t>(n) * 5, rng))
      .graph;
}

TEST(SybilLimit, InstanceCountFollowsBirthdayParadox) {
  const auto g = expander(400, 1);
  SybilLimitParams params;
  params.r0 = 4.0;
  const SybilLimit protocol{g, params};
  const auto expected = static_cast<std::uint32_t>(
      std::ceil(4.0 * std::sqrt(static_cast<double>(g.num_edges()))));
  EXPECT_EQ(protocol.instances(), expected);
}

TEST(SybilLimit, InstanceOverrideRespected) {
  const auto g = expander(100, 2);
  SybilLimitParams params;
  params.instances_override = 17;
  const SybilLimit protocol{g, params};
  EXPECT_EQ(protocol.instances(), 17u);
}

TEST(SybilLimit, RegistrationTailsOnePerInstance) {
  const auto g = expander(200, 3);
  SybilLimitParams params;
  params.instances_override = 25;
  params.route_length = 8;
  const SybilLimit protocol{g, params};
  const auto tails = protocol.registration_tails(5);
  EXPECT_EQ(tails.size(), 25u);
  for (const DirectedEdge tail : tails) {
    EXPECT_TRUE(g.has_edge(tail.from, tail.to));
  }
}

TEST(SybilLimit, HonestNodesAdmittedOnFastGraphWithAdequateWalk) {
  // On an expander with w comfortably above the mixing time, almost all
  // honest suspects must intersect a verifier's tails (birthday paradox).
  const auto g = expander(500, 4);
  SybilLimitParams params;
  params.route_length = 12;
  params.r0 = 4.0;
  const SybilLimit protocol{g, params};
  auto verifier = protocol.make_verifier(0);

  util::Rng rng{5};
  std::size_t admitted = 0;
  const std::size_t trials = 100;
  for (std::size_t i = 0; i < trials; ++i) {
    const auto suspect = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
    if (verifier.admit(protocol, suspect)) ++admitted;
  }
  EXPECT_GT(admitted, trials * 9 / 10);
}

TEST(SybilLimit, ShortWalksAdmitFewerOnSlowGraph) {
  // The paper's Fig 8 mechanism: on a community-structured graph, short
  // routes stay inside the verifier's community and miss most suspects.
  const auto g = build_dataset(*gen::find_dataset("Physics 1"), 2600, 6);

  AdmissionSweepConfig config;
  config.route_lengths = {2, 40};
  config.suspect_sample = 120;
  config.verifier_sample = 2;
  config.seed = 7;
  const auto points = admission_sweep(g, config);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_LT(points[0].admitted_fraction + 0.15, points[1].admitted_fraction);
}

TEST(SybilLimit, AdmissionMonotoneObservedOnSweep) {
  const auto g = expander(300, 8);
  AdmissionSweepConfig config;
  config.route_lengths = {1, 4, 16};
  config.suspect_sample = 80;
  config.verifier_sample = 2;
  const auto points = admission_sweep(g, config);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LE(points[0].admitted_fraction, points[2].admitted_fraction + 0.05);
  EXPECT_GT(points[2].admitted_fraction, 0.8);
}

TEST(SybilLimit, IntersectionWithoutBalanceIsMorePermissive) {
  const auto g = expander(300, 9);
  SybilLimitParams params;
  params.route_length = 10;
  const SybilLimit protocol{g, params};
  auto verifier = protocol.make_verifier(1);
  std::size_t intersecting = 0;
  std::size_t admitted = 0;
  for (graph::NodeId s = 0; s < 100; ++s) {
    if (verifier.intersects(protocol, s)) ++intersecting;
    if (verifier.admit(protocol, s)) ++admitted;
  }
  EXPECT_GE(intersecting, admitted);
}

TEST(SybilLimit, SybilAcceptanceScalesWithAttackEdges) {
  // SybilLimit's security bound: accepted Sybils grow with g (attack
  // edges). With 10x the attack edges, substantially more Sybil identities
  // get through.
  const auto honest = expander(400, 10);

  const auto run = [&](graph::NodeId attack_edges) {
    AttackConfig atk;
    atk.sybil_nodes = 400;
    atk.attack_edges = attack_edges;
    atk.seed = 11;
    const auto composite = attach_sybil_region(honest, atk);

    SybilLimitParams params;
    params.route_length = 10;
    params.r0 = 3.0;
    const SybilLimit protocol{composite.graph, params};
    auto verifier = protocol.make_verifier(0);  // honest verifier

    std::uint64_t sybils_admitted = 0;
    for (graph::NodeId s = composite.sybil_base; s < composite.graph.num_nodes(); ++s) {
      if (verifier.admit(protocol, s)) ++sybils_admitted;
    }
    return sybils_admitted;
  };

  const auto few = run(2);
  const auto many = run(40);
  EXPECT_GT(many, few);
  EXPECT_LT(few, 60u);  // ~ g * w with small constants
}

TEST(SybilLimit, BalanceConditionCapsFloodFromOneTail) {
  // An adversary funneling all intersections through few tails hits the
  // balance bound: load on a single tail cannot exceed
  // h * max(log r, (A+1)/r) while honest loads spread evenly.
  const auto g = expander(200, 12);
  SybilLimitParams params;
  params.route_length = 8;
  params.instances_override = 9;  // tiny r -> log r bound bites quickly
  params.balance_factor = 1.0;
  const SybilLimit protocol{g, params};
  auto verifier = protocol.make_verifier(0);

  std::size_t admitted = 0;
  for (graph::NodeId s = 0; s < g.num_nodes(); ++s) {
    if (verifier.admit(protocol, s)) ++admitted;
  }
  // With 9 tails and bound max(log 9, A/9), total accepts stay bounded by
  // roughly r * h * max(...): far below n.
  EXPECT_LT(admitted, g.num_nodes() / 2);
  EXPECT_EQ(verifier.accepted(), admitted);
}

TEST(AdmissionSweep, DeterministicPerSeed) {
  const auto g = expander(150, 13);
  AdmissionSweepConfig config;
  config.route_lengths = {5};
  config.suspect_sample = 50;
  config.verifier_sample = 1;
  config.seed = 99;
  const auto a = admission_sweep(g, config);
  const auto b = admission_sweep(g, config);
  EXPECT_DOUBLE_EQ(a[0].admitted_fraction, b[0].admitted_fraction);
}

TEST(AdmissionSweep, ZeroVerifiersThrowsInsteadOfRunningWithOne) {
  const auto g = expander(150, 13);
  AdmissionSweepConfig config;
  config.route_lengths = {5};
  config.verifier_sample = 0;
  EXPECT_THROW((void)admission_sweep(g, config), std::invalid_argument);
}

}  // namespace
}  // namespace socmix::sybil
