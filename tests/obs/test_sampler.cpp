// obs::Sampler: JSONL shape, delta/total correctness under concurrent
// writers, monotonicity, and clean shutdown. Runs under TSan in CI (the
// sanitize job executes the whole tier1 label), which is what checks the
// "all file writes happen on the sampler thread" contract for real.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_harness/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace socmix::obs {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in{path};
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Sampler, EmitsParsableMonotonicSeries) {
  const TempFile out{"sampler_series_test.jsonl"};
  const Counter counter = Registry::instance().counter("sampler.test.series");
  const std::uint64_t before = counter.value();

  {
    SamplerOptions options;
    options.path = out.path;
    options.interval_ms = 2;
    Sampler sampler{options};
    ASSERT_TRUE(sampler.ok());

    // Concurrent writers hammering the counter while the sampler snapshots.
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&] {
        for (int i = 0; i < 20000; ++i) counter.add(1);
      });
    }
    for (auto& w : writers) w.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sampler.stop();
    sampler.stop();  // idempotent
    EXPECT_GE(sampler.samples_written(), 2u);  // baseline + final at least
  }

  const auto lines = read_lines(out.path);
  ASSERT_GE(lines.size(), 2u);

  std::int64_t prev_t = -1;
  std::uint64_t prev_seq = 0;
  std::uint64_t prev_total = 0;
  std::uint64_t delta_sum = 0;
  bool counter_seen = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bench::Json doc = bench::Json::parse(lines[i]);  // throws on bad shape
    const auto t_ms = static_cast<std::int64_t>(doc.at("t_ms").as_number());
    EXPECT_GE(t_ms, prev_t);
    prev_t = t_ms;
    const auto seq = static_cast<std::uint64_t>(doc.at("seq").as_number());
    if (i > 0) {
      EXPECT_EQ(seq, prev_seq + 1);
    }
    prev_seq = seq;
    // Process stats are present on every line (zero when /proc is absent).
    EXPECT_TRUE(doc.find("rss_kb") != nullptr);
    EXPECT_TRUE(doc.find("hwm_kb") != nullptr);
    EXPECT_TRUE(doc.find("anon_huge_kb") != nullptr);
    EXPECT_TRUE(doc.find("utime_s") != nullptr);

    const bench::Json* sample = doc.at("counters").find("sampler.test.series");
    if (!sample) continue;  // registered before this test? always present
    counter_seen = true;
    const auto total = static_cast<std::uint64_t>(sample->at("total").as_number());
    const auto delta = static_cast<std::uint64_t>(sample->at("delta").as_number());
    EXPECT_GE(total, prev_total) << "totals must be monotone";
    EXPECT_EQ(total - prev_total, delta) << "delta must match total difference";
    prev_total = total;
    delta_sum += delta;
  }
  ASSERT_TRUE(counter_seen);
  // The final line's total — and the deltas' sum — equal the counter's
  // final value: stop() writes a last sample after the writers finished.
  EXPECT_EQ(prev_total, before + 80000u);
  EXPECT_EQ(delta_sum, prev_total);
}

TEST(Sampler, GaugesAndHistogramsAppear) {
  const TempFile out{"sampler_gauge_test.jsonl"};
  const Gauge gauge = Registry::instance().gauge("sampler.test.gauge");
  gauge.set(3.25);
  const Histogram hist =
      Registry::instance().histogram("sampler.test.hist", std::vector<double>{1.0, 2.0});
  hist.observe(0.5);
  hist.observe(1.5);

  {
    SamplerOptions options;
    options.path = out.path;
    options.interval_ms = 50;
    Sampler sampler{options};
    ASSERT_TRUE(sampler.ok());
  }  // destructor stops; final sample still written

  const auto lines = read_lines(out.path);
  ASSERT_GE(lines.size(), 1u);
  const bench::Json doc = bench::Json::parse(lines.back());
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("sampler.test.gauge").as_number(), 3.25);
  const bench::Json& h = doc.at("histograms").at("sampler.test.hist");
  EXPECT_GE(h.at("count").as_number(), 2.0);
  EXPECT_GE(h.at("sum").as_number(), 2.0);
}

TEST(Sampler, UnwritablePathDegradesGracefully) {
  SamplerOptions options;
  options.path = "/nonexistent-dir-for-sampler/out.jsonl";
  Sampler sampler{options};
  EXPECT_FALSE(sampler.ok());
  sampler.stop();  // must not hang or crash with no thread started
  EXPECT_EQ(sampler.samples_written(), 0u);
}

TEST(Sampler, ProcessSamplerLifecycle) {
  const TempFile out{"sampler_process_test.jsonl"};
  EXPECT_FALSE(process_sampler_active());
  SamplerOptions options;
  options.path = out.path;
  options.interval_ms = 5;
  start_process_sampler(options);
  EXPECT_TRUE(process_sampler_active());
  stop_process_sampler();
  EXPECT_FALSE(process_sampler_active());
  stop_process_sampler();  // idempotent no-op
  EXPECT_GE(read_lines(out.path).size(), 2u);
}

}  // namespace
}  // namespace socmix::obs
