#include "bench_harness/harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "bench_harness/json.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace socmix::bench {

namespace {

double median_of(std::vector<double> values) {
  const std::size_t n = values.size();
  const std::size_t mid = n / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (n % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

}  // namespace

Stats robust_stats(std::span<const double> samples) {
  Stats s;
  if (samples.empty()) return s;
  std::vector<double> values(samples.begin(), samples.end());
  s.min = *std::min_element(values.begin(), values.end());
  s.median = median_of(values);
  std::vector<double> dev;
  dev.reserve(values.size());
  for (const double v : values) dev.push_back(std::abs(v - s.median));
  s.mad = median_of(std::move(dev));
  return s;
}

std::uint64_t peak_rss_kb() noexcept {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kb);
#else
  return 0;
#endif
}

Harness::Harness(std::string name) : name_(std::move(name)) {}

void Harness::set_name(std::string name) {
  const std::lock_guard lock(mutex_);
  name_ = std::move(name);
}

void Harness::set_flag(std::string key, std::string value) {
  const std::lock_guard lock(mutex_);
  for (auto& [k, v] : flags_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  flags_.emplace_back(std::move(key), std::move(value));
}

Entry& Harness::entry_locked(const std::string& name) {
  for (auto& e : entries_) {
    if (e.name == name) return e;
  }
  entries_.emplace_back();
  entries_.back().name = name;
  return entries_.back();
}

double Harness::time_once(const std::string& name, const std::function<void()>& fn) {
  // One PerfGroup per thread: fds are opened once, then reset per region.
  // perf_event fds are calling-thread scoped, so thread_local matches the
  // measurement scope exactly.
  static thread_local PerfGroup perf;
  const bool counters = counters_enabled_ && perf.available();

  util::Timer timer;
  if (counters) perf.start();
  fn();
  PerfSample sample;
  if (counters) sample = perf.stop();
  const double elapsed = timer.seconds();

  const std::lock_guard lock(mutex_);
  Entry& entry = entry_locked(name);
  entry.seconds.push_back(elapsed);
  if (counters) {
    // Keep counters parallel to seconds even if earlier repeats lacked them
    // (counter capture toggled mid-entry never happens in practice, but the
    // invariant must hold for serialization).
    entry.counters.resize(entry.seconds.size() - 1);
    entry.counters.push_back(sample);
  } else if (!entry.counters.empty()) {
    entry.counters.resize(entry.seconds.size());
  }
  entry.peak_rss_kb = peak_rss_kb();
  return elapsed;
}

const Entry& Harness::run(const std::string& name, const std::function<void()>& fn,
                          const RunOptions& options) {
  for (std::size_t i = 0; i < options.warmup; ++i) fn();
  const std::size_t repeats = std::max<std::size_t>(1, options.repeats);
  for (std::size_t i = 0; i < repeats; ++i) time_once(name, fn);
  const std::lock_guard lock(mutex_);
  Entry& entry = entry_locked(name);
  entry.warmup = options.warmup;
  if (options.items_per_repeat > 0.0) entry.items_per_repeat = options.items_per_repeat;
  return entry;
}

void Harness::record(const std::string& name, double seconds) {
  const std::lock_guard lock(mutex_);
  Entry& entry = entry_locked(name);
  entry.seconds.push_back(seconds);
  if (!entry.counters.empty()) entry.counters.resize(entry.seconds.size());
  entry.peak_rss_kb = peak_rss_kb();
}

void Harness::set_items(const std::string& name, double items_per_repeat) {
  const std::lock_guard lock(mutex_);
  entry_locked(name).items_per_repeat = items_per_repeat;
}

const Entry* Harness::find(const std::string& name) const {
  const std::lock_guard lock(mutex_);
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void Harness::write_json(std::ostream& out) const {
  const std::lock_guard lock(mutex_);
  const Provenance prov = capture_provenance();

  Json root = Json::object();
  root.set("schema", kSchema);
  root.set("name", name_);

  Json provenance = Json::object();
  provenance.set("timestamp", prov.timestamp);
  provenance.set("git", prov.git);
  provenance.set("build_type", prov.build_type);
  provenance.set("compiler", prov.compiler);
  provenance.set("simd_tier", prov.simd_tier);
  provenance.set("threads", prov.threads);
  provenance.set("nproc", prov.nproc);
  Json flags = Json::object();
  for (const auto& [k, v] : flags_) flags.set(k, v);
  provenance.set("flags", std::move(flags));
  root.set("provenance", std::move(provenance));

  Json entries = Json::array();
  for (const auto& e : entries_) {
    Json entry = Json::object();
    entry.set("name", e.name);
    entry.set("warmup", static_cast<std::uint64_t>(e.warmup));
    entry.set("repeats", static_cast<std::uint64_t>(e.seconds.size()));
    if (e.items_per_repeat > 0.0) entry.set("items_per_repeat", e.items_per_repeat);

    Json seconds = Json::array();
    for (const double s : e.seconds) seconds.push(s);
    entry.set("seconds", std::move(seconds));

    const Stats stats = e.stats();
    entry.set("median_s", stats.median);
    entry.set("min_s", stats.min);
    entry.set("mad_s", stats.mad);

    bool any_counter = false;
    for (const auto& c : e.counters) any_counter = any_counter || c.any();
    if (any_counter) {
      Json counters = Json::array();
      for (const auto& c : e.counters) {
        Json sample = Json::object();
        if (c.cycles) sample.set("cycles", *c.cycles);
        if (c.instructions) sample.set("instructions", *c.instructions);
        if (c.llc_misses) sample.set("llc_misses", *c.llc_misses);
        counters.push(std::move(sample));
      }
      entry.set("counters", std::move(counters));
    }

    if (e.peak_rss_kb > 0) entry.set("peak_rss_kb", e.peak_rss_kb);
    entries.push(std::move(entry));
  }
  root.set("entries", std::move(entries));

  root.write(out);
  out << '\n';
}

bool Harness::write(const std::string& path) const {
  std::string target = path;
  if (target.empty()) {
    const auto dir = util::bench_results_dir();
    if (!dir) {
      std::fprintf(stderr, "[bench] bench_results/ not writable; BENCH_%s.json skipped\n",
                   name_.c_str());
      return false;
    }
    target = *dir + "/BENCH_" + util::slugify(name_) + ".json";
  }
  std::ofstream out(target);
  if (!out) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n", target.c_str());
    return false;
  }
  write_json(out);
  return out.good();
}

namespace {

// Process-harness configuration. Set once by configure_process before any
// recording; read by the atexit hook.
std::atomic<bool> g_process_configured{false};
std::string g_process_out;                   // empty = default path
std::size_t g_process_repeats = 0;           // 0 = caller fallback
std::atomic<bool> g_exit_hook_registered{false};

void write_process_harness_at_exit() {
  Harness& h = Harness::process();
  if (!g_process_configured.load(std::memory_order_acquire) || h.empty()) return;
  h.write(g_process_out);
}

std::string basename_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

Harness& Harness::process() {
  static Harness instance{"process"};
  return instance;
}

void Harness::configure_process(std::string name) {
  Harness& h = process();
  h.set_name(std::move(name));
  g_process_configured.store(true, std::memory_order_release);
  if (!g_exit_hook_registered.exchange(true)) {
    std::atexit(write_process_harness_at_exit);
  }
}

void Harness::configure_process(const util::Cli& cli) {
  std::string name = cli.get("bench-name", "");
  if (name.empty()) name = basename_of(cli.program());
  if (name.empty()) name = "bench";
  configure_process(std::move(name));
  g_process_out = cli.get("bench-out", "");
  // Drivers call this at the top of main, outside any try block: a
  // malformed or negative count exits 1 naming the flag (0 = unset).
  g_process_repeats = cli.get_count_or_exit("bench-repeats", 0);
}

std::size_t Harness::process_repeats(std::size_t fallback) {
  return g_process_repeats > 0 ? g_process_repeats : fallback;
}

}  // namespace socmix::bench
