// The benchmark harness: one way to time things, one artifact format.
//
// Every bench in this repo reports through a bench::Harness. A harness
// owns a set of named entries; each entry accumulates per-repeat wall
// times (and, when the kernel allows perf_event_open, per-repeat cycles /
// instructions / LLC-misses), and the harness serializes everything as a
// schema-versioned BENCH_<name>.json next to the legacy CSVs:
//
//   run(name, fn, opts)   warmup + N timed repeats of fn (the micro-bench
//                         shape; opts.repeats >= 5 for gate-able entries)
//   time_once(name, fn)   one timed repeat appended to `name` (for benches
//                         with their own pairing/interleaving discipline —
//                         micro_shard's cold rounds — that still want
//                         per-repeat counters and harness stats)
//   record(name, s)       append an externally timed sample (the figure
//                         benches' phase seconds, measured by the code
//                         under measurement itself)
//
// Statistics are robust by design: the reported center is the median, the
// spread is the MAD (median absolute deviation), and the minimum is kept
// as the "best case absent interference" number the previous ad-hoc
// benches reported. Means and variances are deliberately absent — one
// co-tenant burst on a shared runner poisons them.
//
// The process harness (Harness::process()) is the instance library code
// records into: core::measure_mixing reports its phase seconds there, so
// any driver that called configure_process() (every bench does, via
// ExperimentConfig::from_cli or explicitly) gets a BENCH json for free.
// Unconfigured processes (tests, the CLI without --bench-out) accumulate
// into an inert harness that is never written.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_harness/perf.hpp"
#include "bench_harness/provenance.hpp"

namespace socmix::util {
class Cli;
}

namespace socmix::bench {

/// Bumped whenever a field changes meaning; consumers (bench_compare, CI)
/// refuse mismatched schemas rather than misreading them.
inline constexpr const char* kSchema = "socmix-bench/1";

struct RunOptions {
  std::size_t warmup = 1;
  std::size_t repeats = 5;
  /// Work items per repeat (lane-edge updates, admitted queries, ...);
  /// 0 = not a throughput entry. Serialized so items/s can be derived.
  double items_per_repeat = 0.0;
};

/// Robust summary of a sample vector.
struct Stats {
  double median = 0.0;
  double min = 0.0;
  double mad = 0.0;  ///< median of |x_i - median|
};

[[nodiscard]] Stats robust_stats(std::span<const double> samples);

struct Entry {
  std::string name;
  std::size_t warmup = 0;
  double items_per_repeat = 0.0;
  std::vector<double> seconds;       ///< one element per repeat
  std::vector<PerfSample> counters;  ///< parallel to `seconds` when captured
  std::uint64_t peak_rss_kb = 0;     ///< process VmHWM after the last repeat

  [[nodiscard]] Stats stats() const { return robust_stats(seconds); }
};

class Harness {
 public:
  explicit Harness(std::string name);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name);

  /// Records a provenance flag (sharded/scale/...).
  void set_flag(std::string key, std::string value);

  /// Disables per-repeat counter capture (the obs-overhead control arm
  /// and tests of the fallback path).
  void set_counters_enabled(bool enabled) noexcept { counters_enabled_ = enabled; }

  /// Times fn() once (counters + RSS bracketed around it), appends the
  /// sample to `name`, returns elapsed seconds.
  double time_once(const std::string& name, const std::function<void()>& fn);

  /// Warmup + repeats timed runs of fn(); returns the finished entry.
  const Entry& run(const std::string& name, const std::function<void()>& fn,
                   const RunOptions& options = {});

  /// Appends an externally timed sample to `name`.
  void record(const std::string& name, double seconds);

  /// Sets the throughput denominator of `name` (creates the entry).
  void set_items(const std::string& name, double items_per_repeat);

  [[nodiscard]] const Entry* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Serializes the artifact (schema, provenance incl. flags, entries
  /// with raw samples + median/min/MAD + counters when captured).
  void write_json(std::ostream& out) const;

  /// Writes to `path`, or to bench_results/BENCH_<name>.json when empty.
  /// Returns false (with a stderr note) when nothing could be written;
  /// never throws — bench artifacts are best-effort like the CSVs.
  bool write(const std::string& path = {}) const;

  /// The process-wide harness library code records into.
  [[nodiscard]] static Harness& process();

  /// Names the process harness (basename of cli.program() unless
  /// --bench-name overrides), honors --bench-out PATH and
  /// --bench-repeats N (0 = unset; read via process_repeats()), and
  /// registers an atexit hook that writes the artifact if any entry was
  /// recorded. A --bench-repeats that is not a count (malformed or
  /// negative) exits 1 naming the flag.
  static void configure_process(const util::Cli& cli);

  /// Explicit-name variant for drivers without a Cli.
  static void configure_process(std::string name);

  /// Default repeat count for process-harness benches; --bench-repeats
  /// (min taken with 5 is NOT applied — callers own their floor).
  [[nodiscard]] static std::size_t process_repeats(std::size_t fallback = 5);

 private:
  Entry& entry_locked(const std::string& name);

  std::string name_;
  bool counters_enabled_ = true;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> flags_;
};

/// Process peak RSS (VmHWM) in kB from /proc/self/status; 0 if unreadable.
[[nodiscard]] std::uint64_t peak_rss_kb() noexcept;

}  // namespace socmix::bench
