#include <gtest/gtest.h>

#include "util/logging.hpp"
#include "util/timer.hpp"

namespace socmix::util {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  // Burn a little CPU deterministically.
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GT(timer.seconds(), 0.0);
  const double first = timer.millis();
  const double second = timer.millis();
  EXPECT_LE(first, second);  // monotonic clock
}

TEST(Timer, ResetRestarts) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i);
  const double before = timer.seconds();
  timer.reset();
  EXPECT_LT(timer.seconds(), before + 1.0);  // fresh epoch
}

TEST(FormatSeconds, PicksSensibleUnits) {
  EXPECT_EQ(format_seconds(0.0000005), "0.5 us");
  EXPECT_EQ(format_seconds(0.0123), "12.3 ms");
  EXPECT_EQ(format_seconds(2.5), "2.50 s");
  EXPECT_EQ(format_seconds(300.0), "5.0 min");
}

TEST(Timer, StrIsNonEmpty) {
  const Timer timer;
  EXPECT_FALSE(timer.str().empty());
}

TEST(Logging, LevelGatingWorks) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // These must not crash and must respect the gate (visual check only).
  log_debug("suppressed %d", 1);
  log_info("suppressed %s", "too");
  log_warn("suppressed");
  set_log_level(LogLevel::kOff);
  log_error("also suppressed");
  set_log_level(original);
}

TEST(Logging, FormatHandlesArguments) {
  const std::string s = detail::format("x=%d y=%s z=%.2f", 42, "abc", 1.5);
  EXPECT_EQ(s, "x=42 y=abc z=1.50");
}

TEST(Logging, FormatEmpty) {
  EXPECT_EQ(detail::format("%s", ""), "");
}

}  // namespace
}  // namespace socmix::util
