// Property tests of the admission layer over the src/gen families (ER, BA,
// WS, SBM, configuration, powerlaw-cluster) with random seeds: the
// engine's sweep_fractions and verify_batch must equal the reference
// protocol loop — a fresh SybilLimit::Verifier per (verifier node,
// length), suspects admitted in order — at 1 and 4 threads.
//
// The graphs are not reduced to their largest component, so isolated
// suspects and verifiers occur, and the random verifier draw may repeat a
// node. The reference pins today's semantics for a repeated node: one
// shared verifier per node, counted once per `verifiers` entry, with the
// entries admitting each suspect in span order.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/configuration.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/powerlaw_cluster.hpp"
#include "gen/reference.hpp"
#include "gen/sbm.hpp"
#include "gen/watts_strogatz.hpp"
#include "graph/graph.hpp"
#include "sybil/admission_engine.hpp"
#include "sybil/sybil_limit.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace socmix::sybil {
namespace {

constexpr std::uint32_t kInstances = 12;

struct Family {
  const char* name;
  std::function<graph::Graph(util::Rng&)> make;
};

std::vector<Family> gen_families() {
  return {
      {"erdos-renyi", [](util::Rng& rng) { return gen::erdos_renyi_gnm(120, 300, rng); }},
      {"barabasi-albert",
       [](util::Rng& rng) { return gen::barabasi_albert(120, 3, rng); }},
      {"watts-strogatz",
       [](util::Rng& rng) { return gen::watts_strogatz(120, 6, 0.1, rng); }},
      {"sbm",
       [](util::Rng& rng) {
         return gen::stochastic_block_model({{40, 40, 40}, 0.12, 0.01}, rng);
       }},
      {"configuration",
       [](util::Rng& rng) {
         std::vector<graph::NodeId> degrees(120);
         for (graph::NodeId& d : degrees) {
           d = 1 + static_cast<graph::NodeId>(rng.below(7));
         }
         return gen::configuration_model(degrees, rng);
       }},
      {"powerlaw-cluster",
       [](util::Rng& rng) { return gen::powerlaw_cluster(120, 3, 0.3, rng); }},
  };
}

std::vector<graph::NodeId> draw_nodes(const graph::Graph& g, std::size_t count,
                                      util::Rng& rng) {
  std::vector<graph::NodeId> nodes(count);
  for (graph::NodeId& v : nodes) v = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
  return nodes;
}

/// Balance multipliers h: the protocol default, and a tight one under
/// which the balance bound binds often — so the argmin's tie-breaking and
/// the commit order decide admissions.
constexpr double kBalanceFactors[] = {4.0, 0.5};

SybilLimitParams protocol_params(std::size_t w, std::uint64_t seed, double balance) {
  SybilLimitParams params;
  params.route_length = w;
  params.instances_override = kInstances;
  params.seed = seed;
  params.balance_factor = balance;
  return params;
}

/// The reference protocol loop at one length: one fresh Verifier per
/// distinct verifier node, shared by its repeated entries; for each
/// suspect in order, every entry admits in span order.
double reference_fraction(const graph::Graph& g, std::size_t w, std::uint64_t seed,
                          double balance, std::span<const graph::NodeId> verifiers,
                          std::span<const graph::NodeId> suspects) {
  const SybilLimit protocol{g, protocol_params(w, seed, balance)};
  std::map<graph::NodeId, SybilLimit::Verifier> shared;
  for (const graph::NodeId v : verifiers) {
    if (!shared.contains(v)) shared.emplace(v, protocol.make_verifier(v));
  }
  std::uint64_t admitted = 0;
  for (const graph::NodeId suspect : suspects) {
    for (const graph::NodeId v : verifiers) {
      if (shared.at(v).admit(protocol, suspect)) ++admitted;
    }
  }
  return static_cast<double>(admitted) /
         static_cast<double>(verifiers.size() * suspects.size());
}

AdmissionEngineConfig engine_config(std::uint64_t seed, double balance) {
  AdmissionEngineConfig config;
  config.instances_override = kInstances;
  config.seed = seed;
  config.balance_factor = balance;
  return config;
}

TEST(AdmissionEngineProperty, SweepAndBatchEqualProtocolLoopOnGenFamilies) {
  const std::vector<std::size_t> lengths{1, 3, 7};
  util::Rng seeds{0x9e0fa111};
  for (const Family& family : gen_families()) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::uint64_t seed = seeds();
      util::Rng rng{seed};
      const graph::Graph g = family.make(rng);
      const auto verifiers = draw_nodes(g, 3, rng);
      const auto suspects = draw_nodes(g, 45, rng);
      const std::string where =
          std::string{family.name} + " seed=" + std::to_string(seed);

      for (const double balance : kBalanceFactors) {
        std::vector<double> reference;
        for (const std::size_t w : lengths) {
          reference.push_back(
              reference_fraction(g, w, seed, balance, verifiers, suspects));
        }
        // Per-suspect admit decisions of the first verifier at each length.
        std::vector<std::vector<std::uint8_t>> expected_flags;
        for (const std::size_t w : lengths) {
          const SybilLimit protocol{g, protocol_params(w, seed, balance)};
          auto verifier = protocol.make_verifier(verifiers[0]);
          std::vector<std::uint8_t>& flags = expected_flags.emplace_back();
          for (const graph::NodeId s : suspects) {
            flags.push_back(verifier.admit(protocol, s));
          }
        }

        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          util::set_thread_count(threads);
          AdmissionEngine engine{g, engine_config(seed, balance), lengths};
          EXPECT_EQ(engine.sweep_fractions(verifiers, suspects, lengths), reference)
              << where << " h=" << balance << " threads=" << threads;
          for (std::size_t li = 0; li < lengths.size(); ++li) {
            auto& cached = engine.verifier(verifiers[0]);
            cached.reset_balance();
            EXPECT_EQ(engine.verify_batch(cached, li, suspects).admitted,
                      expected_flags[li])
                << where << " h=" << balance << " threads=" << threads
                << " w=" << lengths[li];
          }
        }
      }
    }
  }
  util::set_thread_count(0);
}

TEST(AdmissionEngineProperty, RepeatedVerifierSharesOneCachedVerifier) {
  // Today's semantics for a repeated node in `verifiers`: both entries
  // resolve to one CachedVerifier (one cache miss), each entry counts as
  // its own trial, and for every suspect the entries admit in span order
  // against the shared balance state. On a single edge every route ends
  // on that one tail, so the balance bound binds and the shared state
  // admits fewer suspects than independent verifiers would.
  util::Rng rng{41};
  const graph::Graph g = gen::path(2);
  const std::vector<std::size_t> lengths{2, 6};
  const std::vector<graph::NodeId> verifiers{0, 1, 0};
  const auto suspects = draw_nodes(g, 60, rng);
  constexpr double kBalance = 4.0;
  AdmissionEngine engine{g, engine_config(kInstances, kBalance), lengths};
  const auto fractions = engine.sweep_fractions(verifiers, suspects, lengths);
  EXPECT_EQ(engine.stats().verifier_cache_misses, 2u);
  for (std::size_t k = 0; k < lengths.size(); ++k) {
    EXPECT_EQ(fractions[k],
              reference_fraction(g, lengths[k], kInstances, kBalance, verifiers,
                                 suspects))
        << "w=" << lengths[k];
    // Independent verifiers: a fresh Verifier per entry.
    const SybilLimit protocol{g, protocol_params(lengths[k], kInstances, kBalance)};
    std::uint64_t independent = 0;
    for (const graph::NodeId v : verifiers) {
      auto verifier = protocol.make_verifier(v);
      for (const graph::NodeId s : suspects) independent += verifier.admit(protocol, s);
    }
    EXPECT_LT(fractions[k], static_cast<double>(independent) /
                                static_cast<double>(verifiers.size() * suspects.size()))
        << "w=" << lengths[k];
  }
}

}  // namespace
}  // namespace socmix::sybil
