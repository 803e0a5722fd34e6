#include "resilience/fault.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace socmix::resilience {
namespace {

/// Every test leaves the process disarmed, whatever happened inside.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { disarm_faults(); }
};

TEST_F(FaultTest, ParsesFullSpec) {
  const FaultSpec spec = parse_fault_spec("checkpoint.write:3:error");
  EXPECT_EQ(spec.site, "checkpoint.write");
  EXPECT_EQ(spec.nth, 3u);
  EXPECT_EQ(spec.mode, FaultMode::kError);
}

TEST_F(FaultTest, DefaultsToAbortMode) {
  const FaultSpec spec = parse_fault_spec("block.complete:7");
  EXPECT_EQ(spec.site, "block.complete");
  EXPECT_EQ(spec.nth, 7u);
  EXPECT_EQ(spec.mode, FaultMode::kAbort);
}

TEST_F(FaultTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("graph.load"), std::invalid_argument);  // nth required
  EXPECT_THROW(parse_fault_spec("no.such.site:1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("graph.load:0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("graph.load:x"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("graph.load:1:explode"), std::invalid_argument);
}

TEST_F(FaultTest, RegistryListsEverySite) {
  const auto sites = known_fault_sites();
  ASSERT_EQ(sites.size(), 5u);
  for (const auto site : sites) {
    EXPECT_NO_THROW(fault_point(site)) << site;
  }
}

TEST_F(FaultTest, UnknownSiteThrowsEvenUnarmed) {
  EXPECT_THROW(fault_point("typo.site"), std::invalid_argument);
}

TEST_F(FaultTest, ErrorModeFiresOnExactlyTheNthHit) {
  arm_fault("block.complete:3:error");
  EXPECT_NO_THROW(fault_point("block.complete"));
  EXPECT_NO_THROW(fault_point("block.complete"));
  EXPECT_THROW(fault_point("block.complete"), InjectedFault);
  // Later hits pass: the fault is one-shot by count, not a latch.
  EXPECT_NO_THROW(fault_point("block.complete"));
  EXPECT_EQ(fault_hits("block.complete"), 4u);
}

TEST_F(FaultTest, OtherSitesAreUnaffected) {
  arm_fault("checkpoint.write:1:error");
  EXPECT_NO_THROW(fault_point("checkpoint.rename"));
  EXPECT_NO_THROW(fault_point("graph.load"));
  EXPECT_THROW(fault_point("checkpoint.write"), InjectedFault);
}

TEST_F(FaultTest, DisarmResetsCounters) {
  arm_fault("graph.load:2:error");
  fault_point("graph.load");
  EXPECT_EQ(fault_hits("graph.load"), 1u);
  disarm_faults();
  EXPECT_EQ(fault_hits("graph.load"), 0u);
  EXPECT_NO_THROW(fault_point("graph.load"));
  EXPECT_NO_THROW(fault_point("graph.load"));
}

TEST_F(FaultTest, ReArmingReplacesTheSpec) {
  arm_fault("graph.load:1:error");
  arm_fault("checkpoint.write:1:error");
  EXPECT_NO_THROW(fault_point("graph.load"));
  EXPECT_THROW(fault_point("checkpoint.write"), InjectedFault);
}

TEST_F(FaultTest, ConfiguresFromEnvironment) {
  ASSERT_EQ(::setenv("SOCMIX_FAULT", "graph.load:2:error", 1), 0);
  configure_faults_from_env();
  EXPECT_NO_THROW(fault_point("graph.load"));
  EXPECT_THROW(fault_point("graph.load"), InjectedFault);
  ASSERT_EQ(::unsetenv("SOCMIX_FAULT"), 0);
  // Unset env: no-op, previous state untouched by the call itself.
  disarm_faults();
  configure_faults_from_env();
  EXPECT_NO_THROW(fault_point("graph.load"));
}

using FaultDeathTest = FaultTest;

TEST_F(FaultDeathTest, AbortModeExitsWithTheFaultCode) {
  EXPECT_EXIT(
      {
        arm_fault("block.complete:2:abort");
        fault_point("block.complete");
        fault_point("block.complete");
      },
      ::testing::ExitedWithCode(kFaultExitCode), "");
}

}  // namespace
}  // namespace socmix::resilience
