#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/components.hpp"
#include "obs/obs.hpp"

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

TEST(ExperimentConfig, ShardedIsRefusedByName) {
  // Every graph is swept as one resident CSR: --sharded is retired like
  // the other execution knobs, whatever its value.
  for (const char* value : {"4", "off", "auto"}) {
    try {
      (void)ExperimentConfig::from_cli(make_cli({"--sharded", value}));
      ADD_FAILURE() << "--sharded " << value << " was accepted by a figure driver";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("--sharded"), std::string::npos) << e.what();
    }
  }
}

TEST(ExperimentConfig, RetiredKnobsAreRefusedByName) {
  // --reorder, --precision, --io-mode and --frontier are gone: every
  // value, including the old defaults, is refused rather than silently
  // ignored. --reorder names where the ordering went.
  for (const auto& [flag, value] :
       {std::pair{"--reorder", "none"}, std::pair{"--reorder", "rcm"},
        std::pair{"--precision", "f64"}, std::pair{"--precision", "mixed"},
        std::pair{"--io-mode", "sync"}, std::pair{"--io-mode", "prefetch"},
        std::pair{"--frontier", "auto"}, std::pair{"--frontier", "off"},
        std::pair{"--frontier", "0.25"}}) {
    try {
      refuse_engine_knobs(make_cli({flag, value}));
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(flag), std::string::npos) << e.what();
    }
  }
  try {
    refuse_engine_knobs(make_cli({"--reorder", "rcm"}));
    ADD_FAILURE() << "--reorder rcm was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("graph_pack --reorder rcm"), std::string::npos)
        << e.what();
  }
}

TEST(ExperimentConfig, NegativeCountThrowsNamingTheFlag) {
  for (const char* flag : {"--sources", "--steps", "--threads"}) {
    try {
      (void)ExperimentConfig::from_cli(make_cli({flag, "-5"}));
      ADD_FAILURE() << flag << " -5 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(std::string{flag} + "=-5"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ExperimentConfig, MalformedKnobThrowsNamingTheFlag) {
  for (const char* flag :
       {"--frontier", "--precision", "--sharded", "--io-mode"}) {
    try {
      (void)ExperimentConfig::from_cli(make_cli({flag, "bogus"}));
      ADD_FAILURE() << flag << " bogus was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(flag), std::string::npos) << e.what();
    }
  }
}

TEST(ExperimentConfig, CheckpointFlagsAreRefusedByName) {
  // Every measurement runs to completion: the checkpoint flags are retired,
  // and any value, even a valid one, is refused rather than ignored.
  for (const auto& [flag, value] :
       {std::pair{"--checkpoint-dir", "D"}, std::pair{"--checkpoint-interval", "8"}}) {
    try {
      (void)ExperimentConfig::from_cli(make_cli({flag, value}));
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(std::string{flag} + ": retired"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ExperimentConfig, NonPositiveIntervalsAndScaleThrowNamingTheFlag) {
  // A zero interval and a non-positive or NaN scale used to be clamped
  // silently (to 1, and to a 64-node graph); they now fail closed.
  for (const auto& [flag, value] :
       {std::pair{"--sample-interval-ms", "0"}, std::pair{"--scale", "0"},
        std::pair{"--scale", "-0.5"}, std::pair{"--scale", "nan"}}) {
    try {
      (void)ExperimentConfig::from_cli(make_cli({flag, value}));
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(std::string{flag} + "=" + value),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RefuseEngineKnobs, RandomRoutesTakeNoExecutionKnobs) {
  EXPECT_NO_THROW(refuse_engine_knobs(make_cli({"--threads", "2", "--seed", "3"})));
  // The evolver knobs change no admission work, and the retired ones do
  // nothing anywhere: any value, even a valid default, is refused by name.
  for (const auto& [flag, value] :
       {std::pair{"--reorder", "rcm"}, std::pair{"--sharded", "4"},
        std::pair{"--precision", "mixed"}, std::pair{"--io-mode", "sync"},
        std::pair{"--frontier", "auto"}, std::pair{"--frontier", "off"}}) {
    try {
      refuse_engine_knobs(make_cli({flag, value}));
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(flag), std::string::npos) << e.what();
    }
  }
}

TEST(ExitStatus, UnconvergedSolveExitsThreeNamingTheCount) {
  obs::Registry::instance().reset();
  const util::Cli cli = make_cli({});
  EXPECT_EQ(exit_status(cli), 0);
  SOCMIX_COUNTER_ADD("linalg.lanczos.unconverged", 2);
  testing::internal::CaptureStderr();
  EXPECT_EQ(exit_status(cli), kExitUnconverged);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("lanczos-unconverged: 2 "), std::string::npos) << err;
  obs::Registry::instance().reset();
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

TEST(BuildScaledDataset, ScaleOverflowingNodeIdThrowsNamingTheFlag) {
  const auto spec = *gen::find_dataset("Physics 1");
  for (const double scale : {1e30, 0.0, -1.0}) {
    ExperimentConfig config;
    config.scale = scale;
    try {
      (void)build_scaled_dataset(spec, config);
      ADD_FAILURE() << "scale " << scale << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("--scale="), std::string::npos) << e.what();
    }
  }
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
