#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

TEST(Cli, RecordsProgramName) {
  const Cli cli = make({});
  EXPECT_EQ(cli.program(), "prog");
}

}  // namespace
}  // namespace socmix::util
