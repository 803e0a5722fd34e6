#include "obs/sampler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <memory>
#include <sstream>
#include <string_view>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "obs/metrics.hpp"

namespace socmix::obs {

namespace {

/// Same escaping rules as the metrics exporter (ASCII names in practice).
std::string jsonl_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void append_json_double(std::string& out, double v) {
  if (v != v) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

struct ProcStats {
  std::uint64_t rss_kb = 0;
  std::uint64_t hwm_kb = 0;
  std::uint64_t anon_huge_kb = 0;
  double utime_s = 0.0;
  double stime_s = 0.0;
};

ProcStats read_proc_stats() {
  ProcStats stats;
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long v = 0;
    int found = 0;
    while (found < 2 && std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmRSS: %llu kB", &v) == 1) {
        stats.rss_kb = v;
        ++found;
      } else if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1) {
        stats.hwm_kb = v;
        ++found;
      }
    }
    std::fclose(f);
  }
  // Anonymous memory backed by transparent huge pages (see
  // util/aligned.hpp). smaps_rollup needs Linux 4.14+; absent, it reads 0.
  if (std::FILE* f = std::fopen("/proc/self/smaps_rollup", "r")) {
    char line[256];
    unsigned long long v = 0;
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "AnonHugePages: %llu kB", &v) == 1) {
        stats.anon_huge_kb = v;
        break;
      }
    }
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen("/proc/self/stat", "r")) {
    char buf[1024];
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // The comm field can contain spaces and parentheses; fields are
    // well-defined only after the LAST ')'. utime and stime are fields 14
    // and 15 (1-based), i.e. the 11th and 12th after comm.
    if (const char* p = std::strrchr(buf, ')')) {
      ++p;
      unsigned long long utime = 0, stime = 0;
      if (std::sscanf(p,
                      " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                      &utime, &stime) == 2) {
        const long hz = sysconf(_SC_CLK_TCK);
        const double tick = hz > 0 ? 1.0 / static_cast<double>(hz) : 0.0;
        stats.utime_s = static_cast<double>(utime) * tick;
        stats.stime_s = static_cast<double>(stime) * tick;
      }
    }
  }
#endif
  return stats;
}

std::mutex g_process_sampler_mutex;
std::unique_ptr<Sampler> g_process_sampler;

}  // namespace

Sampler::Sampler(SamplerOptions options) : options_(std::move(options)) {
  options_.interval_ms = std::max<std::uint64_t>(1, options_.interval_ms);
  file_ = std::fopen(options_.path.c_str(), "w");
  if (!file_) {
    std::fprintf(stderr, "obs: cannot open %s for sampling\n", options_.path.c_str());
    stopped_ = true;
    return;
  }
  ok_ = true;
  start_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { run(); });
}

Sampler::~Sampler() { stop(); }

void Sampler::stop() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (stopped_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stopped_ = true;
  }
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::uint64_t Sampler::samples_written() const noexcept {
  return samples_.load(std::memory_order_acquire);
}

void Sampler::run() {
  // Baseline sample at t~0 so consumers always have a starting point (its
  // deltas equal its totals).
  write_sample();
  std::unique_lock<std::mutex> lock{mutex_};
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms));
    if (stop_requested_) break;
    lock.unlock();
    write_sample();
    lock.lock();
  }
  lock.unlock();
  // Final sample after the stop signal: the line whose totals the final
  // metrics snapshot must dominate.
  write_sample();
}

void Sampler::write_sample() {
  const auto now = std::chrono::steady_clock::now();
  const auto t_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start_).count();
  const MetricsSnapshot snap = Registry::instance().snapshot();
  const ProcStats proc = read_proc_stats();

  std::string line;
  line.reserve(512);
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"t_ms\":%lld,\"seq\":%" PRIu64 ",", static_cast<long long>(t_ms),
                seq_);
  line += buf;
  std::snprintf(buf, sizeof buf,
                "\"rss_kb\":%" PRIu64 ",\"hwm_kb\":%" PRIu64
                ",\"anon_huge_kb\":%" PRIu64 ",",
                proc.rss_kb, proc.hwm_kb, proc.anon_huge_kb);
  line += buf;
  line += "\"utime_s\":";
  append_json_double(line, proc.utime_s);
  line += ",\"stime_s\":";
  append_json_double(line, proc.stime_s);

  line += ",\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const auto& c = snap.counters[i];
    std::uint64_t& prev = prev_counters_[c.name];
    const std::uint64_t delta = c.value >= prev ? c.value - prev : 0;
    prev = c.value;
    if (i > 0) line += ",";
    line += '"';
    line += jsonl_escape(c.name);
    line += "\":{\"total\":";
    std::snprintf(buf, sizeof buf, "%" PRIu64 ",\"delta\":%" PRIu64 "}", c.value, delta);
    line += buf;
  }
  line += "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) line += ",";
    line += '"';
    line += jsonl_escape(snap.gauges[i].name);
    line += "\":";
    append_json_double(line, snap.gauges[i].value);
  }
  line += "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    std::uint64_t& prev = prev_hist_counts_[h.name];
    const std::uint64_t delta = h.count >= prev ? h.count - prev : 0;
    prev = h.count;
    if (i > 0) line += ",";
    line += '"';
    line += jsonl_escape(h.name);
    line += "\":{\"count\":";
    std::snprintf(buf, sizeof buf, "%" PRIu64 ",\"delta\":%" PRIu64 ",\"sum\":", h.count,
                  delta);
    line += buf;
    append_json_double(line, h.sum);
    line += "}";
  }
  line += "}}\n";

  std::fputs(line.c_str(), file_);
  std::fflush(file_);
  ++seq_;
  samples_.fetch_add(1, std::memory_order_release);
}

void start_process_sampler(SamplerOptions options) {
  const std::lock_guard<std::mutex> lock{g_process_sampler_mutex};
  g_process_sampler.reset();  // stop any previous one first
  auto sampler = std::make_unique<Sampler>(std::move(options));
  if (sampler->ok()) g_process_sampler = std::move(sampler);
}

void stop_process_sampler() {
  std::unique_ptr<Sampler> sampler;
  {
    const std::lock_guard<std::mutex> lock{g_process_sampler_mutex};
    sampler = std::move(g_process_sampler);
  }
  // Destructor (outside the lock) stops and joins.
}

bool process_sampler_active() {
  const std::lock_guard<std::mutex> lock{g_process_sampler_mutex};
  return g_process_sampler != nullptr;
}

}  // namespace socmix::obs
