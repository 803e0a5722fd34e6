// Umbrella header + instrumentation macros for the observability layer.
//
// Hot paths are instrumented through these macros only. They are always
// compiled in: CI asserts counters such as markov.sampled.oracle_violations
// are zero, so a build without them could not be checked.
//
// Macro usage rules for hot paths (see DESIGN.md "Observability"):
//  * Counters/histograms at block/sweep/iteration granularity, never per
//    edge or per vertex.
//  * Metric names are string literals; the registry handle is resolved
//    once per call site (function-local static) and the steady-state cost
//    is one relaxed atomic add.
//  * Spans guard whole phases or sweeps; a disabled tracer costs one
//    relaxed load.
#pragma once

#include "obs/export.hpp"    // IWYU pragma: export
#include "obs/metrics.hpp"   // IWYU pragma: export
#include "obs/progress.hpp"  // IWYU pragma: export
#include "obs/trace.hpp"     // IWYU pragma: export

#define SOCMIX_OBS_CONCAT_INNER(a, b) a##b
#define SOCMIX_OBS_CONCAT(a, b) SOCMIX_OBS_CONCAT_INNER(a, b)

/// Adds `n` to the counter named `name` (a string literal).
#define SOCMIX_COUNTER_ADD(name, n)                                    \
  do {                                                                 \
    static const ::socmix::obs::Counter socmix_obs_counter_ =          \
        ::socmix::obs::Registry::instance().counter(name);             \
    socmix_obs_counter_.add(static_cast<std::uint64_t>(n));            \
  } while (0)

/// Sets the gauge named `name` to `v`.
#define SOCMIX_GAUGE_SET(name, v)                                      \
  do {                                                                 \
    static const ::socmix::obs::Gauge socmix_obs_gauge_ =              \
        ::socmix::obs::Registry::instance().gauge(name);               \
    socmix_obs_gauge_.set(static_cast<double>(v));                     \
  } while (0)

/// Records `v` (seconds) into the time-bucketed histogram named `name`.
#define SOCMIX_TIME_OBSERVE(name, v)                                   \
  do {                                                                 \
    static const ::socmix::obs::Histogram socmix_obs_hist_ =           \
        ::socmix::obs::Registry::instance().time_histogram(name);      \
    socmix_obs_hist_.observe(static_cast<double>(v));                  \
  } while (0)

/// Records `v` into the histogram named `name` with explicit `bounds`
/// (a std::span<const double>, identical at every call site of the name).
#define SOCMIX_HISTOGRAM_OBSERVE(name, bounds, v)                      \
  do {                                                                 \
    static const ::socmix::obs::Histogram socmix_obs_hist_ =           \
        ::socmix::obs::Registry::instance().histogram(name, bounds);   \
    socmix_obs_hist_.observe(static_cast<double>(v));                  \
  } while (0)

/// Scoped span covering the rest of the enclosing block.
#define SOCMIX_TRACE_SPAN(name) \
  const ::socmix::obs::TraceSpan SOCMIX_OBS_CONCAT(socmix_obs_span_, __LINE__){name}

