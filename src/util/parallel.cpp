#include "util/parallel.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/obs.hpp"

namespace socmix::util {

namespace {

/// True while this thread is executing a for_range body; reentrant
/// parallel_for calls detect this and run inline.
thread_local bool t_inside_parallel_region = false;

/// Widths beyond any plausible machine — including size_t-wrapped
/// negatives from CLI parsing (`--threads -1`) — clamp here instead of
/// asking the OS for billions of workers.
constexpr std::size_t kMaxThreads = 1024;

/// Utilization = busy-thread-time / (width * wall-time) per pooled job;
/// deciles make saturation vs straggler jobs visible at a glance.
constexpr std::array<double, 10> kUtilizationBounds = {0.1, 0.2, 0.3, 0.4, 0.5,
                                                       0.6, 0.7, 0.8, 0.9, 1.0};

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t width = std::clamp<std::size_t>(threads, 1, kMaxThreads);
  workers_.reserve(width - 1);
  for (std::size_t i = 0; i + 1 < width; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock{mutex_};
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || (body_ != nullptr && next_ < end_); });
    if (stop_) return;
    work(lock);
  }
}

void ThreadPool::work(std::unique_lock<std::mutex>& lock) {
  while (body_ != nullptr && next_ < end_) {
    const std::size_t lo = next_;
    const std::size_t hi = std::min(end_, lo + chunk_);
    next_ = hi;
    ++in_flight_;
    const RangeBody* body = body_;
    lock.unlock();

    std::exception_ptr thrown;
    const bool was_inside = t_inside_parallel_region;
    t_inside_parallel_region = true;
    const std::uint64_t chunk_start = steady_ns();
    try {
      (*body)(lo, hi);
    } catch (...) {
      thrown = std::current_exception();
    }
    {
      const std::uint64_t chunk_ns = steady_ns() - chunk_start;
      busy_ns_.fetch_add(chunk_ns, std::memory_order_relaxed);
      SOCMIX_COUNTER_ADD("util.pool.chunks", 1);
      SOCMIX_TIME_OBSERVE("util.pool.chunk_seconds",
                          static_cast<double>(chunk_ns) / 1e9);
    }
    t_inside_parallel_region = was_inside;

    lock.lock();
    --in_flight_;
    if (thrown) {
      if (!error_) error_ = thrown;
      next_ = end_;  // cancel unclaimed chunks
    }
    if (next_ >= end_ && in_flight_ == 0) done_.notify_all();
  }
}

void ThreadPool::for_range(std::size_t begin, std::size_t end, std::size_t grain,
                           const RangeBody& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t min_chunk = std::max<std::size_t>(1, grain);
  // Serial fast paths: width-1 pool, tiny range, or reentrant call.
  if (size() == 1 || n <= min_chunk || t_inside_parallel_region) {
    SOCMIX_COUNTER_ADD("util.pool.inline_runs", 1);
    body(begin, end);
    return;
  }
  SOCMIX_COUNTER_ADD("util.pool.jobs", 1);
  const std::uint64_t job_start = steady_ns();

  // ~4 chunks per thread balances skewed per-index cost against dispatch
  // overhead; grain bounds it below so cache-line-sized work stays fused.
  const std::size_t target_chunks = 4 * size();
  const std::size_t chunk = std::max(min_chunk, (n + target_chunks - 1) / target_chunks);

  std::unique_lock<std::mutex> lock{mutex_};
  done_.wait(lock, [this] { return !busy_; });  // one job at a time
  busy_ = true;
  body_ = &body;
  next_ = begin;
  end_ = end;
  chunk_ = chunk;
  error_ = nullptr;
  busy_ns_.store(0, std::memory_order_relaxed);
  wake_.notify_all();
  work(lock);  // the calling thread participates
  done_.wait(lock, [this] { return next_ >= end_ && in_flight_ == 0; });
  body_ = nullptr;
  busy_ = false;
  const std::exception_ptr err = error_;
  error_ = nullptr;
  // Read under the lock: a queued caller zeroes busy_ns_ for its own job
  // the moment we release it.
  const std::uint64_t job_busy_ns = busy_ns_.load(std::memory_order_relaxed);
  done_.notify_all();  // release any caller queued behind this job
  lock.unlock();
  {
    const std::uint64_t wall_ns = steady_ns() - job_start;
    if (wall_ns > 0) {
      const double utilization =
          static_cast<double>(job_busy_ns) /
          (static_cast<double>(wall_ns) * static_cast<double>(size()));
      SOCMIX_HISTOGRAM_OBSERVE("util.pool.utilization", kUtilizationBounds,
                               utilization);
    }
  }
  if (err) std::rethrow_exception(err);
}

std::size_t hardware_threads() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_requested = 0;  // 0 = default resolution (env, then hardware)

std::size_t resolve_width() {
  if (g_requested > 0) return g_requested;
  return default_thread_count();
}

}  // namespace

std::size_t default_thread_count() {
  if (const char* env = std::getenv("SOCMIX_THREADS")) {
    char* parse_end = nullptr;
    const long value = std::strtol(env, &parse_end, 10);
    if (parse_end != env && *parse_end == '\0' && value > 0) {
      return static_cast<std::size_t>(value);
    }
  }
  return hardware_threads();
}

void set_thread_count(std::size_t threads) {
  const std::lock_guard<std::mutex> lock{g_pool_mutex};
  g_requested = std::min(threads, kMaxThreads);
}

std::size_t thread_count() {
  const std::lock_guard<std::mutex> lock{g_pool_mutex};
  return resolve_width();
}

ThreadPool& global_pool() {
  const std::lock_guard<std::mutex> lock{g_pool_mutex};
  const std::size_t width = resolve_width();
  if (!g_pool || g_pool->size() != width) {
    g_pool.reset();  // join the old workers before building the new pool
    g_pool = std::make_unique<ThreadPool>(width);
  }
  return *g_pool;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const ThreadPool::RangeBody& body) {
  SOCMIX_COUNTER_ADD("util.pool.parallel_for_calls", 1);
  // Reentrant calls must not touch the global pool (and must not resize
  // it mid-job); run inline without consulting the registry.
  if (t_inside_parallel_region) {
    if (begin < end) body(begin, end);
    return;
  }
  global_pool().for_range(begin, end, grain, body);
}

}  // namespace socmix::util
