#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/components.hpp"

namespace socmix::core {
namespace {

TEST(ExperimentConfig, DefaultsFromEmptyCli) {
  const char* argv[] = {"prog"};
  const util::Cli cli{1, argv};
  const auto config = ExperimentConfig::from_cli(cli);
  EXPECT_DOUBLE_EQ(config.scale, 1.0);
  EXPECT_EQ(config.sources, 0u);
  EXPECT_EQ(config.max_steps, 0u);
  EXPECT_EQ(config.seed, 42u);
}

TEST(ExperimentConfig, ParsesOverrides) {
  const char* argv[] = {"prog", "--scale", "0.25", "--sources", "50",
                        "--steps", "100", "--seed", "9"};
  const util::Cli cli{9, argv};
  const auto config = ExperimentConfig::from_cli(cli);
  EXPECT_DOUBLE_EQ(config.scale, 0.25);
  EXPECT_EQ(config.sources, 50u);
  EXPECT_EQ(config.max_steps, 100u);
  EXPECT_EQ(config.seed, 9u);
}

util::Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return util::Cli{static_cast<int>(argv.size()), argv.data()};
}

TEST(ExperimentConfig, ParsesEveryExecutionKnob) {
  const auto config = ExperimentConfig::from_cli(
      make_cli({"--reorder", "rcm", "--frontier", "off", "--precision", "mixed",
                "--sharded", "4", "--io-mode", "prefetch"}));
  EXPECT_EQ(config.engine.reorder, graph::ReorderMode::kRcm);
  EXPECT_EQ(config.engine.frontier.mode, graph::FrontierPolicy::Mode::kOff);
  EXPECT_EQ(config.engine.precision, linalg::simd::Precision::kMixed);
  EXPECT_EQ(config.engine.sharded.mode, graph::ShardPolicy::Mode::kFixed);
  EXPECT_EQ(config.engine.sharded.count, 4u);
  EXPECT_EQ(config.engine.io_mode, linalg::IoMode::kPrefetch);
  EXPECT_EQ(config.engine.mapped, nullptr);

  // The drivers' measurement options carry every knob, not a subset.
  const MeasurementOptions options = config.measurement_options();
  EXPECT_EQ(options.reorder, graph::ReorderMode::kRcm);
  EXPECT_EQ(options.frontier.mode, graph::FrontierPolicy::Mode::kOff);
  EXPECT_EQ(options.precision, linalg::simd::Precision::kMixed);
  EXPECT_EQ(options.sharded.count, 4u);
  EXPECT_EQ(options.io_mode, linalg::IoMode::kPrefetch);
  EXPECT_EQ(options.seed, config.seed);
}

TEST(ExperimentConfig, MalformedKnobThrowsNamingTheFlag) {
  for (const char* flag :
       {"--reorder", "--frontier", "--precision", "--sharded", "--io-mode"}) {
    try {
      (void)ExperimentConfig::from_cli(make_cli({flag, "bogus"}));
      ADD_FAILURE() << flag << " bogus was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(flag), std::string::npos) << e.what();
    }
  }
}

TEST(RouteFrontierFromCli, TakesOnlyTheFrontier) {
  EXPECT_EQ(route_frontier_from_cli(make_cli({})).mode,
            graph::FrontierPolicy::Mode::kAuto);
  EXPECT_EQ(route_frontier_from_cli(make_cli({"--frontier", "off"})).mode,
            graph::FrontierPolicy::Mode::kOff);
  EXPECT_THROW((void)route_frontier_from_cli(make_cli({"--frontier", "bogus"})),
               std::invalid_argument);
  // The evolver knobs change no admission work: any value, even a valid
  // default, is refused by name.
  for (const auto& [flag, value] :
       {std::pair{"--reorder", "rcm"}, std::pair{"--sharded", "4"},
        std::pair{"--precision", "mixed"}, std::pair{"--io-mode", "sync"}}) {
    try {
      (void)route_frontier_from_cli(make_cli({flag, value}));
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(flag), std::string::npos) << e.what();
    }
  }
}

TEST(BuildScaledDataset, ScalesNodeCount) {
  const auto spec = *gen::find_dataset("Physics 1");
  ExperimentConfig config;
  config.scale = 0.5;
  const auto g = build_scaled_dataset(spec, config);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_NEAR(static_cast<double>(g.num_nodes()), 0.5 * spec.default_nodes,
              0.2 * spec.default_nodes);
}

TEST(BuildScaledDataset, FloorPreventsDegenerateGraphs) {
  const auto spec = *gen::find_dataset("Physics 3");
  ExperimentConfig config;
  config.scale = 1e-9;
  const auto g = build_scaled_dataset(spec, config);
  EXPECT_GE(g.num_nodes(), 30u);
}

TEST(EpsilonGrid, CoversPaperRange) {
  const auto grid = figure_epsilon_grid();
  ASSERT_FALSE(grid.empty());
  EXPECT_NEAR(grid.front(), 0.25, 1e-12);
  EXPECT_LT(grid.back(), 2e-4);
  EXPECT_GT(grid.back(), 0.5e-4);
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_LT(grid[i], grid[i - 1]);
}

TEST(WalkLengthGrids, MatchPaperFigures) {
  EXPECT_EQ(short_walk_lengths(), (std::vector<std::size_t>{1, 5, 10, 20, 40}));
  EXPECT_EQ(long_walk_lengths(),
            (std::vector<std::size_t>{80, 100, 200, 300, 400, 500}));
}

TEST(Summarize, IncludesKeyNumbers) {
  MixingReport report;
  report.name = "Foo";
  report.nodes = 1234;
  report.edges = 5678;
  report.spectral_ran = true;
  report.spectral_converged = true;
  report.slem = 0.987654;
  const std::string s = summarize(report);
  EXPECT_NE(s.find("Foo"), std::string::npos);
  EXPECT_NE(s.find("1,234"), std::string::npos);
  EXPECT_NE(s.find("0.987654"), std::string::npos);
  EXPECT_EQ(s.find("UNCONVERGED"), std::string::npos);
}

TEST(Summarize, FlagsUnconverged) {
  MixingReport report;
  report.name = "Bar";
  report.spectral_ran = true;
  report.spectral_converged = false;
  EXPECT_NE(summarize(report).find("UNCONVERGED"), std::string::npos);
}

TEST(EmitSeries, DoesNotCrashAndPrints) {
  Series s;
  s.name = "unit";
  s.x = {1, 2, 3};
  s.y = {0.1, 0.2, 0.3};
  testing::internal::CaptureStdout();
  emit_series("Unit test series", "t", {s}, "unit_test_series");
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("Unit test series"), std::string::npos);
  EXPECT_NE(out.find("unit"), std::string::npos);
}

}  // namespace
}  // namespace socmix::core
