// ProgressMeter: done/percent counting and the rate-derived ETA.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "obs/progress.hpp"

namespace socmix::obs {
namespace {

/// RAII toggle so a failing test cannot leave progress output enabled for
/// the rest of the binary.
struct ProgressEnabledScope {
  ProgressEnabledScope() { set_progress_enabled(true); }
  ~ProgressEnabledScope() { set_progress_enabled(false); }
};

TEST(Progress, FinishPrintsFullCount) {
  const ProgressEnabledScope scope;
  ProgressMeter meter{"finish", 8};
  meter.add(8);
  EXPECT_EQ(meter.done(), 8u);
  testing::internal::CaptureStderr();
  meter.finish();
  const std::string line = testing::internal::GetCapturedStderr();
  EXPECT_NE(line.find("[finish] 8/8 (100%)"), std::string::npos);
}

TEST(Progress, EtaExtrapolatesTheRate) {
  // 5 of 10 blocks in ~1.1s is ~4.5 blocks/s, so the other 5 are ~1.1s
  // away.
  const ProgressEnabledScope scope;
  ProgressMeter meter{"eta", 10};
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  testing::internal::CaptureStderr();
  meter.add(5);  // past the 1s print interval -> prints with an ETA
  const std::string line = testing::internal::GetCapturedStderr();
  ASSERT_NE(line.find("5/10"), std::string::npos) << line;
  const auto eta_pos = line.find("eta ");
  ASSERT_NE(eta_pos, std::string::npos) << line;
  const double eta = std::stod(line.substr(eta_pos + 4));
  EXPECT_GT(eta, 0.5) << line;
  EXPECT_LT(eta, 10.0) << line;
}

}  // namespace
}  // namespace socmix::obs
