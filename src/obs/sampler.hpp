// In-run time-series sampling of the metrics registry and /proc/self.
//
// A Sampler owns a background thread that wakes every interval_ms, takes a
// Registry snapshot plus process stats (VmRSS/VmHWM from /proc/self/status,
// AnonHugePages from /proc/self/smaps_rollup, user/sys CPU seconds from
// /proc/self/stat), and appends one JSON object per sample to a JSONL file:
//
//   {"t_ms":..,"seq":..,"rss_kb":..,"hwm_kb":..,"anon_huge_kb":..,
//    "utime_s":..,"stime_s":..,
//    "counters":{"name":{"total":N,"delta":D}},
//    "gauges":{"name":V},
//    "histograms":{"name":{"count":N,"delta":D,"sum":S}}}
//
// anon_huge_kb is the anonymous memory on transparent huge pages (the
// large kernel buffers, util/aligned.hpp); it reads 0 where smaps_rollup
// is absent. Counters and histogram counts carry both the running total
// and the delta since the previous sample, so consumers get rates without
// differencing and monotonicity is directly checkable. Totals are
// monotone because the underlying sharded counters are add-only.
//
// Threading contract: every file write happens on the sampler thread —
// including the final sample, which the thread takes after seeing the stop
// flag and before exiting — so the output needs no write-side locking and
// the whole construct is TSan-clean (snapshots read relaxed atomics).
// stop() blocks until the thread has written that final line and joined,
// which is why obs::flush() stops the sampler before taking its own final
// snapshot: sampled totals can never exceed the snapshot that lands in
// --metrics-out.
//
// Wired to the CLI as --sample-out PATH [--sample-interval-ms N] via
// core::configure_observability; flush()/flush_on_exit() handle shutdown.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace socmix::obs {

struct SamplerOptions {
  std::string path;                ///< JSONL output file (truncated on open)
  std::uint64_t interval_ms = 100; ///< wake period; clamped to >= 1
};

class Sampler {
 public:
  /// Opens the output and starts the sampling thread. A path that cannot
  /// be opened leaves ok() false and starts nothing (stderr note).
  explicit Sampler(SamplerOptions options);

  /// Equivalent to stop().
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  [[nodiscard]] bool ok() const noexcept { return ok_; }

  /// Signals the thread, waits for it to write one final sample and exit,
  /// then closes the file. Idempotent; safe from any thread but the
  /// sampler's own.
  void stop();

  /// Samples written so far (including the final one after stop()).
  [[nodiscard]] std::uint64_t samples_written() const noexcept;

 private:
  void run();
  void write_sample();

  SamplerOptions options_;
  bool ok_ = false;
  std::FILE* file_ = nullptr;
  std::chrono::steady_clock::time_point start_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

  std::atomic<std::uint64_t> samples_{0};
  // Previous totals for delta computation; touched only by the sampler
  // thread.
  std::map<std::string, std::uint64_t> prev_counters_;
  std::map<std::string, std::uint64_t> prev_hist_counts_;
  std::uint64_t seq_ = 0;

  std::thread thread_;
};

/// Starts the process-wide sampler (replacing any previous one). Called by
/// core::configure_observability when --sample-out is given.
void start_process_sampler(SamplerOptions options);

/// Stops and destroys the process-wide sampler; no-op when none is
/// running. Called by obs::flush() before it snapshots.
void stop_process_sampler();

/// True while the process-wide sampler is running.
[[nodiscard]] bool process_sampler_active();

}  // namespace socmix::obs
