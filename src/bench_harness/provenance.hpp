// Environment provenance for benchmark artifacts and metrics snapshots.
//
// A perf number without its environment is a rumor: every BENCH_*.json
// carries the commit, compiler, build type, resolved SIMD tier, thread
// count, and the perf-relevant CLI flags the run executed under, so two
// artifacts are comparable exactly when their provenance says they are.
//
// Build facts (git describe, build type, compiler) are burned in at
// configure time via compile definitions on this library — see
// src/bench_harness/CMakeLists.txt. They go stale only between a commit
// and the next CMake configure, which CI never sees (fresh configure per
// run) and local use survives (the --dirty suffix flags uncommitted
// kernels either way).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace socmix::bench {

struct Provenance {
  std::string timestamp;   ///< ISO-8601 UTC wall clock at capture
  std::string git;         ///< `git describe --always --dirty` at configure
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string compiler;    ///< compiler id + version
  std::string simd_tier;   ///< resolved linalg.simd tier (forces the probe)
  std::uint64_t threads = 0;  ///< util::parallel pool width at capture
  std::uint64_t nproc = 0;    ///< hardware threads of the host
  /// Perf-relevant run flags (reorder/frontier/precision/...), caller-set.
  std::vector<std::pair<std::string, std::string>> flags;
};

/// Captures everything except `flags` (which only the driver knows).
[[nodiscard]] Provenance capture_provenance();

/// ISO-8601 UTC wall-clock "now", e.g. "2026-08-07T14:03:22Z".
[[nodiscard]] std::string iso8601_utc_now();

/// Pushes the build/environment facts into the obs exporter's provenance
/// registry so every --metrics-out snapshot (JSON and CSV) is stamped with
/// git describe, build type, compiler, and the resolved SIMD tier.
/// Idempotent; called by core::configure_observability.
void apply_metrics_provenance();

}  // namespace socmix::bench
