#include "obs/progress.hpp"

#include <cstdio>

#include "obs/trace.hpp"

namespace socmix::obs {

namespace {

std::atomic<bool> g_progress_enabled{false};

constexpr std::int64_t kPrintIntervalNs = 1'000'000'000;  // 1 line/second max

}  // namespace

void set_progress_enabled(bool enabled) noexcept {
  g_progress_enabled.store(enabled, std::memory_order_relaxed);
}

bool progress_enabled() noexcept {
  return g_progress_enabled.load(std::memory_order_relaxed);
}

ProgressMeter::ProgressMeter(std::string label, std::uint64_t total)
    : label_(std::move(label)), total_(total), start_ns_(trace_now_ns()) {
  next_print_ns_.store(static_cast<std::int64_t>(start_ns_) + kPrintIntervalNs,
                       std::memory_order_relaxed);
}

void ProgressMeter::add(std::uint64_t n) {
  const std::uint64_t done_now = done_.fetch_add(n, std::memory_order_relaxed) + n;
  if (!progress_enabled()) return;
  const auto now = static_cast<std::int64_t>(trace_now_ns());
  std::int64_t due = next_print_ns_.load(std::memory_order_relaxed);
  if (now < due) return;
  // One thread wins the right to print this interval's line.
  if (!next_print_ns_.compare_exchange_strong(due, now + kPrintIntervalNs,
                                              std::memory_order_relaxed)) {
    return;
  }
  print_line(done_now, /*final=*/false);
}

void ProgressMeter::finish() {
  if (!progress_enabled()) return;
  const std::uint64_t done_now = done_.load(std::memory_order_relaxed);
  if (done_now == 0) return;
  print_line(done_now, /*final=*/true);
}

void ProgressMeter::print_line(std::uint64_t done_now, bool final) {
  const std::lock_guard<std::mutex> lock{print_mutex_};
  const double elapsed =
      static_cast<double>(trace_now_ns() - start_ns_) / 1e9;
  char eta[32] = "";
  if (!final && total_ > 0 && done_now > 0 && done_now < total_) {
    const double rate = static_cast<double>(done_now) / elapsed;
    std::snprintf(eta, sizeof eta, " eta %.1fs",
                  static_cast<double>(total_ - done_now) / rate);
  }
  if (total_ > 0) {
    std::fprintf(stderr, "[%s] %llu/%llu (%.0f%%) %.1fs%s\n", label_.c_str(),
                 static_cast<unsigned long long>(done_now),
                 static_cast<unsigned long long>(total_),
                 100.0 * static_cast<double>(done_now) / static_cast<double>(total_),
                 elapsed, eta);
  } else {
    std::fprintf(stderr, "[%s] %llu %.1fs\n", label_.c_str(),
                 static_cast<unsigned long long>(done_now), elapsed);
  }
}

}  // namespace socmix::obs
