// End-to-end: a real measurement run populates the pipeline's metrics and
// spans, and the JSON exporter emits those keys. Complements the CLI-level
// smoke test in tools/ (which drives the socmix binary with --metrics-out).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/measurement.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/components.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace socmix::obs {
namespace {

TEST(ObsE2E, MeasurementPopulatesPipelineMetrics) {
  Registry::instance().reset();
  set_tracing_enabled(true);
  clear_trace();

  util::Rng rng{7};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(150, 450, rng)).graph;
  core::MeasurementOptions options;
  options.sources = 40;
  options.max_steps = 25;
  const auto report = core::measure_mixing(g, "obs-e2e", options);
  set_tracing_enabled(false);

  std::ostringstream out;
  write_metrics_json(Registry::instance().snapshot(), out);
  const std::string json = out.str();
  // Every stage of the pipeline must have reported in: the measurement
  // entry point, the spectral solve, the batched evolution, and the pool.
  for (const char* key : {"\"core.measurements\":1",
                          "\"core.phase.spectral_seconds\":",
                          "\"core.phase.sampled_seconds\":",
                          "\"linalg.lanczos.solves\":1",
                          "\"linalg.lanczos.restarts\":",
                          "\"linalg.lanczos.certified_residual\":",
                          "\"linalg.spmv.applies\":",
                          "\"markov.sampled.runs\":1",
                          "\"markov.sampled.sources\":40",
                          "\"markov.sampled.oracle_violations\":0",
                          "\"markov.evolver.sweeps\":",
                          "\"markov.evolver.rows_swept\":",
                          "\"util.pool.parallel_for_calls\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  // The counters agree with the report: sweeps * block accounting.
  const Counter sources = Registry::instance().counter("markov.sampled.sources");
  EXPECT_EQ(sources.value(), report.sampled->num_sources());
  const Counter steps = Registry::instance().counter("markov.sampled.steps");
  EXPECT_EQ(steps.value(), 40u * 25u);
  // The sampled TVD obeys monotonicity and the spectral upper bound.
  EXPECT_EQ(report.oracle_violations, 0u);
  EXPECT_EQ(Registry::instance().counter("markov.sampled.oracle_violations").value(), 0u);

  // The phase gauges mirror the report fields exactly.
  const Gauge spectral = Registry::instance().gauge("core.phase.spectral_seconds");
  EXPECT_EQ(spectral.value(), report.spectral_seconds);
  const Gauge sampled = Registry::instance().gauge("core.phase.sampled_seconds");
  EXPECT_EQ(sampled.value(), report.sampled_seconds);

  // Tracing captured the pipeline's nested spans.
  std::ostringstream trace;
  write_trace_json(trace);
  const std::string tjson = trace.str();
  for (const char* span : {"measure_mixing", "phase.spectral", "phase.sampled",
                           "lanczos.solve", "lanczos.apply", "lanczos.reorth",
                           "lanczos.eig", "lanczos.restart", "spmv.apply",
                           "measure_sampled_mixing",
                           "evolve_block", "evolver.init", "evolver.sweep"}) {
    EXPECT_NE(tjson.find(span), std::string::npos) << "missing span " << span;
  }
  clear_trace();
}

TEST(ObsE2E, InstrumentationDoesNotPerturbResults) {
  // Two identical runs (metrics accumulating across them) must produce
  // bit-identical trajectories — instrumentation is observation only.
  util::Rng rng{8};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(120, 360, rng)).graph;
  core::MeasurementOptions options;
  options.sources = 12;
  options.max_steps = 15;
  options.seed = 5;
  const auto a = core::measure_mixing(g, "g", options);
  const auto b = core::measure_mixing(g, "g", options);
  EXPECT_DOUBLE_EQ(a.slem, b.slem);
  for (std::size_t s = 0; s < 12; ++s) {
    EXPECT_DOUBLE_EQ(a.sampled->tvd(s, 15), b.sampled->tvd(s, 15));
  }
}

}  // namespace
}  // namespace socmix::obs
