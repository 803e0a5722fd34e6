#include "core/measurement.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/reference.hpp"
#include "graph/components.hpp"
#include "linalg/dense.hpp"
#include "util/rng.hpp"

namespace socmix::core {
namespace {

graph::Graph small_expander(std::uint64_t seed) {
  util::Rng rng{seed};
  return graph::largest_component(gen::erdos_renyi_gnm(120, 360, rng)).graph;
}

TEST(Measurement, ReportsBasicFacts) {
  const auto g = small_expander(1);
  MeasurementOptions options;
  options.sources = 10;
  options.max_steps = 30;
  const auto report = measure_mixing(g, "test-graph", options);
  EXPECT_EQ(report.name, "test-graph");
  EXPECT_EQ(report.nodes, g.num_nodes());
  EXPECT_EQ(report.edges, g.num_edges());
  EXPECT_TRUE(report.spectral_ran);
  EXPECT_TRUE(report.spectral_converged);
  ASSERT_TRUE(report.sampled.has_value());
  EXPECT_EQ(report.sampled->num_sources(), 10u);
  EXPECT_EQ(report.sampled->max_steps(), 30u);
}

TEST(Measurement, SlemMatchesDenseOracle) {
  const auto g = small_expander(2);
  MeasurementOptions options;
  options.sampled = false;
  const auto report = measure_mixing(g, "g", options);
  EXPECT_NEAR(report.slem, linalg::dense_slem(g), 1e-7);
}

TEST(Measurement, SpectralOnlyMode) {
  const auto g = small_expander(3);
  MeasurementOptions options;
  options.sampled = false;
  const auto report = measure_mixing(g, "g", options);
  EXPECT_TRUE(report.spectral_ran);
  EXPECT_FALSE(report.sampled.has_value());
}

TEST(Measurement, SampledOnlyMode) {
  const auto g = small_expander(4);
  MeasurementOptions options;
  options.spectral = false;
  options.sources = 5;
  options.max_steps = 10;
  const auto report = measure_mixing(g, "g", options);
  EXPECT_FALSE(report.spectral_ran);
  EXPECT_TRUE(report.sampled.has_value());
}

TEST(Measurement, AllSourcesBruteForce) {
  const auto g = gen::complete(25);
  MeasurementOptions options;
  options.all_sources = true;
  options.max_steps = 5;
  const auto report = measure_mixing(g, "K25", options);
  EXPECT_EQ(report.sampled->num_sources(), 25u);
}

TEST(Measurement, BoundsBracketFromTheorem2) {
  // Lower bound <= sampled worst T(eps) <= something finite on an ergodic
  // graph; and lower <= upper always.
  const auto g = small_expander(5);
  MeasurementOptions options;
  options.all_sources = true;
  options.max_steps = 200;
  const auto report = measure_mixing(g, "g", options);
  for (const double eps : {0.1, 0.01}) {
    EXPECT_LE(report.lower_bound(eps), report.upper_bound(eps));
    const auto t = report.sampled->worst_mixing_time(eps);
    ASSERT_NE(t, markov::kNotMixed);
    EXPECT_GE(static_cast<double>(t) + 1.0, report.lower_bound(eps));
  }
}

TEST(Measurement, DeterministicPerSeed) {
  const auto g = small_expander(6);
  MeasurementOptions options;
  options.sources = 8;
  options.max_steps = 20;
  options.seed = 77;
  const auto a = measure_mixing(g, "g", options);
  const auto b = measure_mixing(g, "g", options);
  EXPECT_DOUBLE_EQ(a.slem, b.slem);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_DOUBLE_EQ(a.sampled->tvd(s, 20), b.sampled->tvd(s, 20));
  }
}

TEST(Measurement, LazyWalkOption) {
  // Periodic star: simple walk never mixes, lazy walk does.
  const auto g = gen::star(12);
  MeasurementOptions lazy;
  lazy.laziness = 0.5;
  lazy.all_sources = true;
  lazy.max_steps = 120;
  const auto report = measure_mixing(g, "star", lazy);
  EXPECT_NE(report.sampled->worst_mixing_time(0.01), markov::kNotMixed);
}

TEST(Measurement, SampledTvdObeysTheOraclesOnEveryTable1Config) {
  // Monotone TVD and the spectral upper bound, simple and lazy walks.
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g =
        graph::largest_component(gen::build_dataset(spec, 400, 11)).graph;
    for (const double laziness : {0.0, 0.5}) {
      MeasurementOptions options;
      options.sources = 16;
      options.max_steps = 60;
      options.laziness = laziness;
      const auto report = measure_mixing(g, spec.name, options);
      ASSERT_TRUE(report.spectral_ran);
      EXPECT_EQ(report.oracle_violations, 0u) << spec.name << " laziness=" << laziness;
    }
  }
}

TEST(Measurement, OraclesCatchAnUnderestimatedMuAndARisingTvd) {
  const auto g = small_expander(6);
  MeasurementOptions options;
  options.sources = 8;
  options.max_steps = 30;
  auto report = measure_mixing(g, "oracle", options);
  ASSERT_EQ(count_oracle_violations(g, report, 0.0), 0u);

  // A µ far below the truth makes the spectral bound fall under the
  // measured TVD.
  MixingReport shrunk = report;
  shrunk.lambda2 *= 0.1;
  shrunk.lambda_min *= 0.1;
  EXPECT_GT(count_oracle_violations(g, shrunk, 0.0), 0u);

  // Without the spectral phase only monotonicity is checked: a trajectory
  // that rises once is one violation.
  std::vector<std::vector<double>> tvd(1, std::vector<double>{0.5, 0.25, 0.3, 0.1});
  MixingReport rising;
  rising.sampled = markov::SampledMixing{{report.sampled->sources()[0]}, tvd};
  EXPECT_EQ(count_oracle_violations(g, rising, 0.0), 1u);
}

TEST(Measurement, EmptyGraphIsHarmless) {
  const auto report = measure_mixing(graph::Graph{}, "empty", {});
  EXPECT_EQ(report.nodes, 0u);
  EXPECT_FALSE(report.spectral_ran);
  EXPECT_FALSE(report.sampled.has_value());
}

}  // namespace
}  // namespace socmix::core
