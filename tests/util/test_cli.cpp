#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

namespace socmix::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli{static_cast<int>(argv.size()), argv.data()};
}

TEST(Cli, ParsesSpaceSeparatedValues) {
  const Cli cli = make({"--scale", "0.5", "--seed", "7"});
  EXPECT_DOUBLE_EQ(cli.get_f64("scale", 1.0), 0.5);
  EXPECT_EQ(cli.get_i64("seed", 0), 7);
}

TEST(Cli, ParsesEqualsSyntax) {
  const Cli cli = make({"--steps=250", "--name=fig1"});
  EXPECT_EQ(cli.get_i64("steps", 0), 250);
  EXPECT_EQ(cli.get("name", ""), "fig1");
}

TEST(Cli, BareFlagIsTrue) {
  const Cli cli = make({"--verbose"});
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.get_flag("quiet"));
}

TEST(Cli, ExplicitBooleanValues) {
  EXPECT_TRUE(make({"--x=yes"}).get_flag("x"));
  EXPECT_TRUE(make({"--x=1"}).get_flag("x"));
  EXPECT_TRUE(make({"--x=ON"}).get_flag("x"));
  EXPECT_FALSE(make({"--x=no"}).get_flag("x"));
  EXPECT_FALSE(make({"--x=0"}).get_flag("x"));
}

TEST(Cli, FallbacksWhenAbsent) {
  const Cli cli = make({});
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_i64("missing", 9), 9);
  EXPECT_DOUBLE_EQ(cli.get_f64("missing", 2.5), 2.5);
}

TEST(Cli, ThrowsOnUnparsableValue) {
  const Cli cli = make({"--seed=abc", "--scale", "1.5x"});
  const auto message = [](auto read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_NE(message([&] { (void)cli.get_i64("seed", 5); }).find("--seed=abc"),
            std::string::npos);
  EXPECT_NE(message([&] { (void)cli.get_f64("scale", 1.0); }).find("--scale=1.5x"),
            std::string::npos);
}

TEST(Cli, CountsFailClosed) {
  const Cli cli = make({"--sources", "-5", "--nodes=5000000000", "--steps", "x", "--threads", "3"});
  const auto message = [](auto read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_EQ(cli.get_count("threads", 0), 3u);
  EXPECT_EQ(cli.get_count("missing", 7), 7u);
  // A negative count never wraps into a huge one, a count past the
  // caller's bound never truncates, and garbage never reads as zero.
  EXPECT_NE(message([&] { (void)cli.get_count("sources", 0); })
                .find("--sources=-5: expected a non-negative integer"),
            std::string::npos);
  EXPECT_NE(message([&] { (void)cli.get_count("nodes", 0, 4294967295u); })
                .find("--nodes=5000000000: expected an integer in [0, 4294967295]"),
            std::string::npos);
  EXPECT_NE(message([&] { (void)cli.get_count("steps", 0); }).find("--steps=x"),
            std::string::npos);
  // get_i64 keeps accepting negative values.
  EXPECT_EQ(cli.get_i64("sources", 0), -5);
}

TEST(CliDeathTest, CountOrExitExitsOneNamingTheFlag) {
  const Cli cli = make({"--nodes", "-10", "--steps", "4"});
  EXPECT_EQ(cli.get_count_or_exit("steps", 0), 4u);
  EXPECT_EQ(cli.get_count_or_exit("missing", 7), 7u);
  EXPECT_EXIT((void)cli.get_count_or_exit("nodes", 0, 4294967295u),
              ::testing::ExitedWithCode(1), "prog: --nodes=-10: expected an integer");
}

TEST(Cli, PositiveCountsRefuseZero) {
  const Cli cli = make(
      {"--interval", "0", "--every", "-2", "--verifiers", "4", "--size", "4294967296"});
  const auto message = [](auto read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_EQ(cli.get_positive("verifiers", 3), 4u);
  EXPECT_EQ(cli.get_positive("missing", 8), 8u);
  // Zero and negatives throw instead of clamping to 1.
  EXPECT_NE(message([&] { (void)cli.get_positive("interval", 8); })
                .find("--interval=0: expected a positive integer"),
            std::string::npos);
  EXPECT_NE(message([&] { (void)cli.get_positive("every", 8); })
                .find("--every=-2: expected a positive integer"),
            std::string::npos);
  // An upper bound is checked too, so a size never wraps into a NodeId.
  EXPECT_EQ(cli.get_positive("verifiers", 3, 4), 4u);
  EXPECT_NE(message([&] { (void)cli.get_positive("size", 8, 4294967295u); })
                .find("--size=4294967296: expected an integer in [1, 4294967295]"),
            std::string::npos);
}

TEST(Cli, CollectsPositionalArguments) {
  const Cli cli = make({"input.txt", "--flag", "out.txt"});
  // "out.txt" is consumed as --flag's value (space-separated form).
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.get("flag", ""), "out.txt");
}

TEST(Cli, FlagFollowedByOptionStaysBare) {
  const Cli cli = make({"--a", "--b", "3"});
  EXPECT_TRUE(cli.get_flag("a"));
  EXPECT_EQ(cli.get_i64("b", 0), 3);
}

TEST(Cli, RefuseUnknownNamesTheFirstUnlistedFlag) {
  constexpr std::string_view kKnown[] = {"sources", "steps"};
  EXPECT_NO_THROW(make({"--sources", "4", "--steps=5"}).refuse_unknown(kKnown));
  EXPECT_NO_THROW(make({"positional"}).refuse_unknown(kKnown));
  // A misspelt flag fails instead of leaving its default in place.
  try {
    make({"--steps", "5", "--source", "4"}).refuse_unknown(kKnown);
    ADD_FAILURE() << "--source was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--source: unknown flag");
  }
}

TEST(Cli, RecordsProgramName) {
  const Cli cli = make({});
  EXPECT_EQ(cli.program(), "prog");
}

}  // namespace
}  // namespace socmix::util
