// Parameterized property tests: invariants that must hold for the random
// walk on ANY connected non-bipartite graph, swept across graph families.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/barabasi_albert.hpp"
#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/powerlaw_cluster.hpp"
#include "gen/reference.hpp"
#include "gen/watts_strogatz.hpp"
#include "graph/components.hpp"
#include "linalg/lanczos.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "util/rng.hpp"

namespace socmix::markov {
namespace {

struct Family {
  const char* name;
  graph::Graph (*make)(util::Rng&);
};

graph::Graph make_complete(util::Rng&) { return gen::complete(40); }
graph::Graph make_odd_cycle(util::Rng&) { return gen::cycle(41); }
graph::Graph make_dumbbell(util::Rng&) { return gen::dumbbell(15, 2); }
graph::Graph make_er(util::Rng& rng) {
  return graph::largest_component(gen::erdos_renyi_gnm(120, 360, rng)).graph;
}
graph::Graph make_ba(util::Rng& rng) { return gen::barabasi_albert(120, 3, rng); }
graph::Graph make_ws(util::Rng& rng) {
  return graph::largest_component(gen::watts_strogatz(120, 6, 0.2, rng)).graph;
}
graph::Graph make_hk(util::Rng& rng) { return gen::powerlaw_cluster(120, 3, 0.8, rng); }
graph::Graph make_community(util::Rng& rng) {
  return graph::largest_component(gen::community_powerlaw(4, 40, 3, 0.6, 2.0, rng)).graph;
}

constexpr Family kFamilies[] = {
    {"complete", make_complete}, {"odd_cycle", make_odd_cycle},
    {"dumbbell", make_dumbbell}, {"erdos_renyi", make_er},
    {"barabasi_albert", make_ba}, {"watts_strogatz", make_ws},
    {"holme_kim", make_hk},      {"community", make_community},
};

class ChainProperties : public ::testing::TestWithParam<std::size_t> {
 protected:
  [[nodiscard]] graph::Graph make() const {
    util::Rng rng{GetParam() * 1000 + 7};
    return kFamilies[GetParam()].make(rng);
  }
};

TEST_P(ChainProperties, TvdIsMonotoneNonIncreasing) {
  // || mu P^t - pi ||_tv is non-increasing in t for ANY chain — a sharp
  // correctness check on the evolution kernel.
  const auto g = make();
  const auto pi = stationary_distribution(g);
  const auto traj = tvd_trajectory(g, 0, 120, pi);
  for (std::size_t t = 1; t < traj.size(); ++t) {
    EXPECT_LE(traj[t], traj[t - 1] + 1e-12)
        << kFamilies[GetParam()].name << " t=" << t;
  }
}

TEST_P(ChainProperties, SpectralDecayBoundHolds) {
  // For reversible chains: tvd(t) <= (1/2) sqrt((1-pi_min)/pi_min) mu^t.
  const auto g = make();
  const auto pi = stationary_distribution(g);
  const double pi_min = *std::min_element(pi.begin(), pi.end());
  const auto spectrum = linalg::slem_spectrum(linalg::WalkOperator{g});
  if (spectrum.slem >= 1.0 - 1e-9) GTEST_SKIP() << "periodic-ish chain";
  const double constant = 0.5 * std::sqrt((1.0 - pi_min) / pi_min);

  const auto traj = tvd_trajectory(g, 0, 120, pi);
  double factor = spectrum.slem;
  for (std::size_t t = 0; t < traj.size(); ++t) {
    EXPECT_LE(traj[t], constant * factor + 1e-9)
        << kFamilies[GetParam()].name << " t=" << t + 1;
    factor *= spectrum.slem;
  }
}

TEST_P(ChainProperties, SlemInUnitInterval) {
  const auto g = make();
  const auto spectrum = linalg::slem_spectrum(linalg::WalkOperator{g});
  EXPECT_GE(spectrum.slem, 0.0);
  EXPECT_LE(spectrum.slem, 1.0);
  EXPECT_GE(spectrum.lambda2, spectrum.lambda_min);
  EXPECT_LT(spectrum.lambda2, 1.0 + 1e-9);
  EXPECT_GT(spectrum.lambda_min, -1.0 - 1e-9);
}

TEST_P(ChainProperties, SampledWorstRespectsSpectralLowerBound) {
  const auto g = make();
  const auto spectrum = linalg::slem_spectrum(linalg::WalkOperator{g});
  if (spectrum.slem >= 1.0 - 1e-9) GTEST_SKIP() << "periodic-ish chain";
  const auto sampled = measure_sampled_mixing(g, all_sources(g), 800);
  const SpectralBounds bounds{spectrum.slem};
  const std::size_t t = sampled.worst_mixing_time(0.1);
  if (t == kNotMixed) GTEST_SKIP() << "needs more steps";
  EXPECT_GE(static_cast<double>(t) + 1.0, bounds.lower(0.1))
      << kFamilies[GetParam()].name;
}

TEST_P(ChainProperties, LazyChainIsSlowerButErgodic) {
  const auto g = make();
  const auto pi = stationary_distribution(g);
  const auto lazy = tvd_trajectory(g, 0, 300, pi, /*laziness=*/0.5);
  // Ergodic: must actually converge...
  EXPECT_LT(lazy.back(), lazy.front());
  // ...and monotone like any chain.
  for (std::size_t t = 1; t < lazy.size(); ++t) {
    EXPECT_LE(lazy[t], lazy[t - 1] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ChainProperties,
                         ::testing::Range<std::size_t>(0, std::size(kFamilies)),
                         [](const auto& info) {
                           return std::string{kFamilies[info.param].name};
                         });

}  // namespace
}  // namespace socmix::markov
