// Periodic stderr progress lines with ETA for long sweeps.
//
// A ProgressMeter is free to construct even when progress output is
// disabled (the default): add() is then a single relaxed atomic add. With
// --progress, at most one line per second is printed, rate-derived ETA
// included, from whichever worker thread happens to cross the interval.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace socmix::obs {

/// Enables/disables stderr progress lines process-wide (off by default).
void set_progress_enabled(bool enabled) noexcept;
[[nodiscard]] bool progress_enabled() noexcept;

class ProgressMeter {
 public:
  /// `label` prefixes every line; `total` is the unit count add() counts
  /// toward (eta needs total > 0).
  ProgressMeter(std::string label, std::uint64_t total);

  /// Thread-safe. Records n completed units and maybe prints a line.
  void add(std::uint64_t n = 1);

  /// Prints the final 100% line (if enabled and anything was added).
  void finish();

  [[nodiscard]] std::uint64_t done() const noexcept {
    return done_.load(std::memory_order_relaxed);
  }

 private:
  void print_line(std::uint64_t done_now, bool final);

  std::string label_;
  std::uint64_t total_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::int64_t> next_print_ns_;
  std::uint64_t start_ns_;
  std::mutex print_mutex_;
};

}  // namespace socmix::obs
