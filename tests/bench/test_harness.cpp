// bench::Harness: robust stats math, artifact schema round-trip, and the
// perf_event fallback contract.
#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_harness/harness.hpp"
#include "bench_harness/json.hpp"
#include "bench_harness/perf.hpp"

namespace socmix::bench {
namespace {

TEST(RobustStats, OddAndEvenMedians) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  const Stats s1 = robust_stats(odd);
  EXPECT_DOUBLE_EQ(s1.median, 3.0);
  EXPECT_DOUBLE_EQ(s1.min, 1.0);
  EXPECT_DOUBLE_EQ(s1.mad, 2.0);  // deviations {2,2,0} -> median 2

  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  const Stats s2 = robust_stats(even);
  EXPECT_DOUBLE_EQ(s2.median, 2.5);
  EXPECT_DOUBLE_EQ(s2.min, 1.0);
  EXPECT_DOUBLE_EQ(s2.mad, 1.0);  // deviations {1.5,1.5,0.5,0.5} -> 1

  EXPECT_DOUBLE_EQ(robust_stats(std::span<const double>{}).median, 0.0);
}

TEST(RobustStats, MadResistsOutliers) {
  // One co-tenant burst (the 50.0) must not move the reported center.
  const std::vector<double> samples{1.0, 1.1, 0.9, 1.0, 50.0};
  const Stats s = robust_stats(samples);
  EXPECT_DOUBLE_EQ(s.median, 1.0);
  EXPECT_LE(s.mad, 0.1);
}

TEST(Harness, RunRecordsRepeatsAndStats) {
  Harness h{"unit"};
  int calls = 0;
  RunOptions options;
  options.warmup = 2;
  options.repeats = 5;
  options.items_per_repeat = 100.0;
  const Entry& entry = h.run("work", [&] { ++calls; }, options);
  EXPECT_EQ(calls, 7);  // 2 warmup + 5 timed
  EXPECT_EQ(entry.seconds.size(), 5u);
  EXPECT_EQ(entry.warmup, 2u);
  EXPECT_DOUBLE_EQ(entry.items_per_repeat, 100.0);
  for (const double s : entry.seconds) EXPECT_GE(s, 0.0);
  const Stats stats = entry.stats();
  EXPECT_GE(stats.median, stats.min);
}

TEST(Harness, TimeOnceMeasuresElapsed) {
  Harness h{"unit"};
  const double elapsed = h.time_once("sleep", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  EXPECT_GE(elapsed, 0.004);
  ASSERT_NE(h.find("sleep"), nullptr);
  EXPECT_EQ(h.find("sleep")->seconds.size(), 1u);
  EXPECT_EQ(h.find("missing"), nullptr);
}

TEST(Harness, RecordAppendsExternalSamples) {
  Harness h{"unit"};
  h.record("phase", 1.5);
  h.record("phase", 2.5);
  const Entry* entry = h.find("phase");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(entry->stats().median, 2.0);
}

TEST(Harness, JsonArtifactRoundTrips) {
  Harness h{"roundtrip"};
  h.set_flag("sharded", "4");
  h.set_flag("sharded", "16");  // overwrite, no duplicate
  h.record("alpha", 0.5);
  h.record("alpha", 0.7);
  h.record("alpha", 0.6);
  h.set_items("alpha", 1000.0);

  std::ostringstream out;
  h.write_json(out);
  const Json doc = Json::parse(out.str());

  EXPECT_EQ(doc.at("schema").as_string(), kSchema);
  EXPECT_EQ(doc.at("name").as_string(), "roundtrip");

  const Json& prov = doc.at("provenance");
  EXPECT_FALSE(prov.at("timestamp").as_string().empty());
  EXPECT_FALSE(prov.at("simd_tier").as_string().empty());
  EXPECT_GE(prov.at("threads").as_number(), 1.0);
  EXPECT_GE(prov.at("nproc").as_number(), 1.0);
  EXPECT_EQ(prov.at("flags").at("sharded").as_string(), "16");
  EXPECT_EQ(prov.at("flags").members().size(), 1u);

  const Json& entries = doc.at("entries");
  ASSERT_EQ(entries.size(), 1u);
  const Json& alpha = entries.at(std::size_t{0});
  EXPECT_EQ(alpha.at("name").as_string(), "alpha");
  EXPECT_DOUBLE_EQ(alpha.at("repeats").as_number(), 3.0);
  EXPECT_EQ(alpha.at("seconds").size(), 3u);
  EXPECT_DOUBLE_EQ(alpha.at("median_s").as_number(), 0.6);
  EXPECT_DOUBLE_EQ(alpha.at("min_s").as_number(), 0.5);
  EXPECT_NEAR(alpha.at("mad_s").as_number(), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(alpha.at("items_per_repeat").as_number(), 1000.0);
  // Externally recorded samples carry no hardware counters.
  EXPECT_FALSE(alpha.has("counters"));
}

TEST(Harness, PeakRssIsPlausible) {
  const std::uint64_t rss = peak_rss_kb();
#if defined(__linux__)
  EXPECT_GT(rss, 1000u);  // any live process has > 1 MB high-water mark
#else
  EXPECT_EQ(rss, 0u);
#endif
}

TEST(PerfGroup, FallbackContract) {
  PerfGroup group;
  if (!group.available()) {
    // The graceful-degradation path: a reason is reported, start/stop are
    // no-ops, and samples carry no values.
    EXPECT_FALSE(group.unavailable_reason().empty());
    group.start();
    const PerfSample sample = group.stop();
    EXPECT_FALSE(sample.any());
  } else {
    // Counters opened: a busy loop must retire a nonzero instruction count
    // on whichever events the kernel granted.
    group.start();
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
    const PerfSample sample = group.stop();
    EXPECT_TRUE(sample.any());
    if (sample.instructions) {
      EXPECT_GT(*sample.instructions, 0u);
    }
  }
}

TEST(Harness, CountersDisabledProducesNone) {
  Harness h{"unit"};
  h.set_counters_enabled(false);
  h.time_once("quiet", [] {});
  EXPECT_TRUE(h.find("quiet")->counters.empty());
}

}  // namespace
}  // namespace socmix::bench
