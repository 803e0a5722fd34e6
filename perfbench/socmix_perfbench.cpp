// socmix_perfbench — the end-to-end benchmark binary behind perfbench/run.py.
//
//   socmix_perfbench gen --workload NAME --out FILE [--quick]
//   socmix_perfbench run --workload NAME --input FILE --seed N --seconds S
//                        --trace 0|1 [--quick]
//   socmix_perfbench selftest
//
// `gen` builds the workload's input (a Table-1 stand-in from gen::, written
// as a SNAP edge list or a compressed .smxg pack) in its own process, so the
// measuring process only ever sees the file and its peak RSS is the
// program's, not the generator's. `run` times calls into the public API of
// graph, markov, linalg, core and sybil, checks every output, and prints one
// JSON object as its last stdout line. With --trace 0 it reports the
// end-to-end metrics from calls that carry no per-layer timers; with
// --trace 1 it re-runs each layer's public calls from here, timed one by
// one, and reports the per-layer metrics (perfbench/README.md has the map).
// `selftest` feeds corrupted outputs to the checkers and fails unless each
// one trips.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "bench_harness/harness.hpp"
#include "core/measurement.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/sharded_walk_operator.hpp"
#include "linalg/simd/kernels.hpp"
#include "linalg/walk_operator.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "sybil/admission_engine.hpp"
#include "sybil/sybil_limit.hpp"
#include "util/checksum.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace socmix;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ workloads --

enum class Kind { kMeasure, kSweep };

struct Workload {
  const char* name;
  const char* dataset;  ///< Table-1 stand-in (gen::find_dataset)
  graph::NodeId nodes;
  graph::NodeId quick_nodes;
  Kind kind;
  bool pack;  ///< input is a compressed .smxg container, not an edge list
  // measure workloads
  std::size_t sources = 0;
  std::size_t steps = 0;
  bool all_sources = false;
  bool spectral = false;
};

// Why each workload exists, and its sizing, is in perfbench/README.md.
const Workload kWorkloads[] = {
    {"lj20k-measure", "LiveJournal A", 20'000, 3'000, Kind::kMeasure, false, 256, 60, false,
     true},
    {"physics2-admission", "Physics 2", 0, 2'000, Kind::kSweep, false},
    {"lj500k-pack", "LiveJournal A", 500'000, 3'000, Kind::kMeasure, true, 64, 20, false,
     false},
};

/// Worker threads, below the 4 vCPUs of the shared host the benchmark was
/// sized on: a 4-thread sweep there ran 36% slower while one other process
/// was busy, a 2-thread sweep 9%, so 4 threads mostly measure the neighbors.
constexpr std::size_t kThreads = 2;

/// Every input graph is generated from this one seed, so each workload does
/// the same work under every --seed; the seed draws the queries instead
/// (sampled sources, suspects, verifiers, the served suspect stream).
constexpr std::uint64_t kGraphSeed = 42;

// The paper's Fig.-8 grid and the admission sizing (perfbench/README.md).
const std::vector<std::size_t> kFig8Lengths{1, 2, 4, 6, 8, 10, 15, 20, 30, 40};
constexpr std::size_t kSweepSuspects = 500;
constexpr std::size_t kQuickSweepSuspects = 200;
constexpr std::size_t kVerifiers = 16;
constexpr std::size_t kServeLength = 10;
constexpr std::size_t kServeBatches = 1'000;
constexpr std::size_t kQuickServeBatches = 50;

/// Slack on TVD monotonicity: P contracts TV distance and pi P = pi, so a
/// trajectory may rise only by f64 rounding.
constexpr double kTvdSlack = 1e-12;

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

// --------------------------------------------------------------- checks --

/// Empty when `tvd` (TVD after steps 1..T from one source) is a valid
/// trajectory: every value in [0, 1] and no rise above kTvdSlack.
std::string check_trajectory(std::span<const double> tvd) {
  for (std::size_t t = 0; t < tvd.size(); ++t) {
    if (!(tvd[t] >= 0.0 && tvd[t] <= 1.0)) {
      return "tvd(t=" + std::to_string(t + 1) + ") outside [0, 1]";
    }
    if (t > 0 && tvd[t] > tvd[t - 1] + kTvdSlack) {
      return "tvd rises at t=" + std::to_string(t + 1);
    }
  }
  return {};
}

/// Empty when every admitted fraction lies in [0, 1].
std::string check_fractions(std::span<const double> fractions) {
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    if (!(fractions[i] >= 0.0 && fractions[i] <= 1.0)) {
      return "admitted fraction " + std::to_string(i) + " outside [0, 1]";
    }
  }
  return {};
}

/// Empty when a verify_batch result is self-consistent for `lanes` suspects.
std::string check_batch(const sybil::AdmissionEngine::BatchResult& r, std::size_t lanes) {
  if (r.admitted.size() != lanes) return "batch result has the wrong length";
  std::uint64_t admitted = 0;
  for (const std::uint8_t a : r.admitted) {
    if (a > 1) return "admit flag is not 0/1";
    admitted += a;
  }
  if (admitted != r.admitted_count ||
      r.admitted_count + r.rejected_no_intersection + r.rejected_balance != lanes) {
    return "batch counts do not add up";
  }
  return {};
}

// -------------------------------------------------------------- digests --

struct Crc {
  std::uint32_t state = util::kCrc32Init;
  void add(const void* data, std::size_t bytes) {
    state = util::crc32_update(
        state, std::span<const std::byte>{static_cast<const std::byte*>(data), bytes});
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  [[nodiscard]] std::uint32_t value() const { return util::crc32_final(state); }
};

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::string hex64(double d) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(d)));
  return buf;
}

/// CRC-32 of exactly the bytes `socmix measure --tvd-out` writes.
std::uint32_t tvd_digest(const markov::SampledMixing& sampled) {
  Crc crc;
  char buf[64];
  std::snprintf(buf, sizeof buf, "# source tvd(t=1) .. tvd(t=%zu)\n", sampled.max_steps());
  crc.add(std::string{buf});
  for (std::size_t s = 0; s < sampled.num_sources(); ++s) {
    std::string line = std::to_string(sampled.sources()[s]);
    for (std::size_t t = 1; t <= sampled.max_steps(); ++t) {
      std::snprintf(buf, sizeof buf, " %.17g", sampled.tvd(s, t));
      line += buf;
    }
    line += '\n';
    crc.add(line);
  }
  return crc.value();
}

// ------------------------------------------------------------- host info --

double peak_rss_mb() { return static_cast<double>(bench::peak_rss_kb()) / 1024.0; }

long l3_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  return ::sysconf(_SC_LEVEL3_CACHE_SIZE);
#else
  return -1;
#endif
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --------------------------------------------------------------- report --

struct Metric {
  double value;
  std::string unit;
  bool computed;  ///< derived from array sizes, not measured
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           bool computed = false) {
    metrics_[name] = {value, unit, computed};
  }
  /// Counts one operation; `problem` empty means it passed every check.
  void op(const std::string& problem) {
    ++attempted_;
    if (!problem.empty()) {
      ++failed_;
      std::fprintf(stderr, "perfbench: FAILED op: %s\n", problem.c_str());
    }
  }
  void print() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("metric %-28s %.6g %s%s\n", name.c_str(), m.value, m.unit.c_str(),
                  m.computed ? " (computed)" : "");
    }
    std::printf("error_rate %.6g (%llu failed of %llu attempted ops)\n",
                attempted_ == 0 ? 0.0
                                : static_cast<double>(failed_) / static_cast<double>(attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, m] : metrics_) {
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------- setup --

/// The measured graph: the LCC of a parsed edge list, or a borrowed view of
/// a mapped pack (which must outlive every measurement).
struct Input {
  graph::Graph owned;
  graph::sharded::MappedGraph mapped;
  bool packed = false;
  [[nodiscard]] const graph::Graph& graph() const { return packed ? mapped.view() : owned; }
  [[nodiscard]] const graph::sharded::MappedGraph* mapped_ptr() const {
    return packed ? &mapped : nullptr;
  }
};

/// Pins the calling thread to one CPU of its original affinity mask at a
/// time, and restores that mask when destroyed. On a shared host one vCPU
/// can run single-threaded code ~40% slower than its siblings for minutes at
/// a time, so set-up repeats rotate over every CPU: the median is then not
/// decided by where the thread happened to start.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof original_, &original_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  [[nodiscard]] std::size_t size() const { return std::max<std::size_t>(cpus_.size(), 1); }
  /// Pins to the next CPU of the original mask, round-robin.
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Loads the input several times (the last load is kept), rotating over the
/// CPUs, and reports the median set-up time and the median of each
/// graph-layer call. The worker pool does not exist yet, so no worker
/// inherits a pinned mask.
Input setup(const Workload& w, const std::string& path, Report& report) {
  // Small inputs load in milliseconds: repeat them until two seconds are spent
  // so the median is not one scheduler hiccup.
  constexpr std::size_t kMaxReps = 200;
  constexpr double kMinSeconds = 2.0;
  const double file_mb = static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  std::vector<double> total, parse, lcc, map;
  Input in;
  double spent = 0.0;
  CpuRotation rotation;
  const std::size_t min_reps = std::max<std::size_t>(5, 2 * rotation.size());
  while (total.size() < min_reps || (spent < kMinSeconds && total.size() < kMaxReps)) {
    in = Input{};
    rotation.next();
    const auto t0 = Clock::now();
    if (w.pack) {
      in.mapped = graph::sharded::MappedGraph{path};
      in.packed = true;
      map.push_back(since(t0));
    } else {
      graph::LoadResult loaded = graph::load_edge_list_file(path);
      const auto t1 = Clock::now();
      in.owned = graph::largest_component(loaded.graph).graph;
      parse.push_back(std::chrono::duration<double>(t1 - t0).count());
      lcc.push_back(since(t1));
    }
    total.push_back(since(t0));
    spent += total.back();
  }
  report.set("setup_s", bench::robust_stats(total).median, "s");
  const double parse_s = bench::robust_stats(parse).median;
  report.set("graph.parse_s", parse_s, "s");
  report.set("graph.parse_mb_per_s", parse_s > 0.0 ? file_mb / parse_s : 0.0, "MB/s");
  report.set("graph.lcc_s", bench::robust_stats(lcc).median, "s");
  report.set("graph.map_s", bench::robust_stats(map).median, "s");
  std::printf("input %s: %.1f MB, n=%u m=%llu\n", path.c_str(), file_mb,
              in.graph().num_nodes(), static_cast<unsigned long long>(in.graph().num_edges()));
  std::printf("set-up: %zu repeats, min %.6g s, median %.6g s, max %.6g s\n", total.size(),
              *std::min_element(total.begin(), total.end()), bench::robust_stats(total).median,
              *std::max_element(total.begin(), total.end()));
  return in;
}

/// Calls `op` (which returns its own wall time) until `budget` seconds are
/// spent: three times when calls are short, once when a call alone exceeds
/// the budget. Records peak RSS after the first call and the call count
/// under `count_name`; returns the median call time.
template <typename Op>
double repeat_for(double budget, Op op, const char* count_name, Report& report) {
  std::vector<double> calls;
  const auto t0 = Clock::now();
  do {
    calls.push_back(op());
    if (calls.size() == 1) report.set("peak_rss_mb", peak_rss_mb(), "MB");
  } while (since(t0) + calls.back() <= budget || (calls.size() < 3 && since(t0) < budget));
  report.set(count_name, static_cast<double>(calls.size()), "count");
  std::printf("%s:", count_name);
  for (const double c : calls) std::printf(" %.4g", c);
  std::printf(" s\n");
  return bench::robust_stats(calls).median;
}

// ------------------------------------------------------- measure (layers) --

/// WalkLikeOperator adapter that times every apply() of the wrapped
/// operator, so linalg.lanczos_s splits into apply and the rest.
template <linalg::WalkLikeOperator Op>
class TimedOperator {
 public:
  explicit TimedOperator(const Op& op) : op_{&op} {}
  [[nodiscard]] std::size_t dim() const { return op_->dim(); }
  void apply(std::span<const double> x, std::span<double> y) const {
    const auto t0 = Clock::now();
    op_->apply(x, y);
    seconds_ += since(t0);
    ++calls_;
  }
  [[nodiscard]] std::vector<double> top_eigenvector() const { return op_->top_eigenvector(); }
  [[nodiscard]] double laziness() const { return op_->laziness(); }
  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  const Op* op_;
  mutable double seconds_ = 0.0;
  mutable std::uint64_t calls_ = 0;
};

struct SpectralTrace {
  linalg::SpectrumResult spectrum;
  double seconds = 0.0;
  double apply_seconds = 0.0;
  std::uint64_t apply_calls = 0;
};

/// The spectral phase as measure_mixing runs it (identity ordering), timed
/// from outside: operator construction plus slem_spectrum.
SpectralTrace traced_spectral(const graph::Graph& g, const core::MeasurementOptions& options) {
  SpectralTrace out;
  const auto t0 = Clock::now();
  const auto run = [&](const auto& op) {
    const TimedOperator timed{op};
    out.spectrum = linalg::slem_spectrum(timed, options.lanczos);
    out.apply_seconds = timed.seconds();
    out.apply_calls = timed.calls();
  };
  const std::uint32_t shards = graph::resolve_shard_count(
      options.sharded, g.memory_bytes(), g.num_nodes(), g.headless() ? 3u : 2u);
  if (shards > 1 || g.headless()) {
    run(linalg::ShardedWalkOperator{g, graph::ShardPlan::balanced(g.offsets(), shards),
                                    options.laziness, options.mapped, options.io_mode});
  } else {
    run(linalg::WalkOperator{g, options.laziness});
  }
  out.seconds = since(t0);
  return out;
}

markov::SampledMixing traced_sampled(const graph::Graph& g,
                                     const core::MeasurementOptions& options,
                                     double& seconds) {
  const auto t0 = Clock::now();
  util::Rng rng{options.seed};
  const auto sources = options.all_sources ? markov::all_sources(g)
                                           : markov::pick_sources(g, options.sources, rng);
  markov::SampledMixingOptions so;
  so.max_steps = options.max_steps;
  so.laziness = options.laziness;
  so.reorder = options.reorder;
  so.frontier = options.frontier;
  so.precision = options.precision;
  so.sharded = options.sharded;
  so.mapped = options.mapped;
  so.io_mode = options.io_mode;
  markov::SampledMixing sampled = markov::measure_sampled_mixing(g, sources, so);
  seconds = since(t0);
  return sampled;
}

/// Digest of everything a measurement reports, for repeat comparison.
struct MeasureDigest {
  std::string spectrum;  ///< mu/lambda2/lambda_min bit patterns
  std::uint32_t tvd = 0;
  bool operator==(const MeasureDigest&) const = default;
};

std::string spectrum_bits(const linalg::SpectrumResult& s) {
  return "mu=" + hex64(s.slem) + " lambda2=" + hex64(s.lambda2) +
         " lambda_min=" + hex64(s.lambda_min);
}

/// Checks one measurement's outputs; empty when it passed.
std::string check_measure(bool spectral_ran, bool converged, std::size_t iterations,
                          const std::optional<markov::SampledMixing>& sampled) {
  if (spectral_ran && !converged) {
    return "Lanczos stopped unconverged after " + std::to_string(iterations) + " iterations";
  }
  if (sampled) {
    for (std::size_t s = 0; s < sampled->num_sources(); ++s) {
      std::vector<double> tvd(sampled->max_steps());
      for (std::size_t t = 1; t <= tvd.size(); ++t) tvd[t - 1] = sampled->tvd(s, t);
      if (const std::string bad = check_trajectory(tvd); !bad.empty()) {
        return "source " + std::to_string(sampled->sources()[s]) + ": " + bad;
      }
    }
  }
  return {};
}

void run_measure(const Workload& w, const Input& in, const util::Cli& cli, Report& report) {
  const bool quick = cli.has("quick");
  const bool trace = cli.get_i64("trace", 0) != 0;
  const double budget = cli.get_f64("seconds", 10.0);
  const auto threads = util::thread_count();
  const graph::Graph& g = in.graph();

  core::MeasurementOptions options;
  options.sources = quick ? std::min<std::size_t>(w.sources, 16) : w.sources;
  options.max_steps = quick ? std::min<std::size_t>(w.steps, 40) : w.steps;
  options.all_sources = w.all_sources;
  options.spectral = w.spectral;
  options.seed = static_cast<std::uint64_t>(cli.get_i64("seed", 1));
  options.mapped = in.mapped_ptr();

  std::optional<MeasureDigest> first;
  const auto untraced = [&]() {
    const auto t0 = Clock::now();
    const core::MixingReport r = core::measure_mixing(g, w.name, options);
    const double seconds = since(t0);
    std::printf("measure_mixing %.6g s (its own phase timers: spectral %.6g s, sampled %.6g s)\n",
                seconds, r.spectral_seconds, r.sampled_seconds);
    std::string problem =
        check_measure(r.spectral_ran, r.spectral_converged, r.lanczos_iterations, r.sampled);
    linalg::SpectrumResult s;
    s.slem = r.slem;
    s.lambda2 = r.lambda2;
    s.lambda_min = r.lambda_min;
    const MeasureDigest d{r.spectral_ran ? spectrum_bits(s) : "",
                          r.sampled ? tvd_digest(*r.sampled) : 0u};
    if (!first) {
      first = d;
      std::printf("digest spectrum %s iterations=%zu\n",
                  r.spectral_ran ? d.spectrum.c_str() : "(off)", r.lanczos_iterations);
      std::printf("digest tvd-out crc32=%s (%zu sources x %zu steps)\n", hex32(d.tvd).c_str(),
                  r.sampled ? r.sampled->num_sources() : 0,
                  r.sampled ? r.sampled->max_steps() : 0);
    } else if (!(d == *first) && problem.empty()) {
      problem = "repeat outputs differ from the first repeat";
    }
    report.op(problem);
    return seconds;
  };

  const double untraced_s = repeat_for(budget, untraced, "measure_calls", report);
  report.set("op_s", untraced_s, "s");
  if (!trace) return;

  // Traced run: the same work as separate layer calls, each timed from here.
  const auto t0 = Clock::now();
  const std::vector<double> pi = markov::stationary_distribution(g);
  const double pi_s = since(t0);
  SpectralTrace spectral;
  if (options.spectral) spectral = traced_spectral(g, options);
  double sampled_s = 0.0;
  const markov::SampledMixing sampled = traced_sampled(g, options, sampled_s);
  const double traced_s = since(t0);

  std::string problem = check_measure(options.spectral, spectral.spectrum.converged,
                                      spectral.spectrum.iterations, sampled);
  const MeasureDigest traced_digest{options.spectral ? spectrum_bits(spectral.spectrum) : "",
                                    tvd_digest(sampled)};
  if (problem.empty() && !(traced_digest == *first)) {
    problem = "traced layer calls disagree with measure_mixing";
  }
  report.op(problem);

  // The same layer calls on one thread, for the parallel speed-ups; the
  // outputs must not depend on the thread count.
  util::set_thread_count(1);
  SpectralTrace spectral1;
  if (options.spectral) spectral1 = traced_spectral(g, options);
  double sampled1_s = 0.0;
  const markov::SampledMixing sampled1 = traced_sampled(g, options, sampled1_s);
  util::set_thread_count(threads);
  const MeasureDigest serial_digest{options.spectral ? spectrum_bits(spectral1.spectrum) : "",
                                    tvd_digest(sampled1)};
  report.op(serial_digest == *first ? "" : "1-thread outputs differ from 4-thread outputs");

  const double n = g.num_nodes();
  const double half_edges = static_cast<double>(g.num_half_edges());
  const auto& sp = spectral.spectrum;
  report.set("markov.pi_s", pi_s, "s");
  report.set("linalg.lanczos_s", spectral.seconds, "s");
  report.set("linalg.apply_s", spectral.apply_seconds, "s");
  report.set("linalg.apply_calls", static_cast<double>(spectral.apply_calls), "count");
  report.set("linalg.non_apply_s", spectral.seconds - spectral.apply_seconds, "s");
  report.set("linalg.iterations", static_cast<double>(sp.iterations), "count");
  report.set("linalg.converged", options.spectral && sp.converged ? 1.0 : 0.0, "bool");
  // Computed bytes per apply: offsets and neighbor ids once, one 8-byte
  // gather per half-edge, and x, the pre-scaled copy and y streamed once.
  const double apply_bytes = 8.0 * (n + 1) + 4.0 * half_edges + 8.0 * half_edges + 24.0 * n;
  report.set("linalg.apply_gb_per_s",
             spectral.apply_seconds > 0.0
                 ? apply_bytes * static_cast<double>(spectral.apply_calls) /
                       spectral.apply_seconds / 1e9
                 : 0.0,
             "GB/s", true);
  report.set("linalg.basis_mb", 8.0 * n * static_cast<double>(sp.iterations) / 1e6, "MB",
             true);

  const double lane_steps =
      static_cast<double>(sampled.num_sources()) * static_cast<double>(sampled.max_steps());
  report.set("markov.sampled_s", sampled_s, "s");
  report.set("markov.lane_steps", lane_steps, "count");
  report.set("markov.edge_updates_per_s",
             sampled_s > 0.0 ? lane_steps * half_edges / sampled_s : 0.0, "1/s");
  // Computed bytes per lane-step: one 8-byte gather per half-edge plus the
  // lane's new row written; the CSR itself is shared by a block's lanes.
  const double lane_bytes = 8.0 * half_edges + 8.0 * n;
  const double blocks = std::ceil(static_cast<double>(sampled.num_sources()) /
                                  markov::BatchedEvolver::kDefaultBlock);
  const double csr_bytes =
      blocks * static_cast<double>(sampled.max_steps()) * (8.0 * (n + 1) + 4.0 * half_edges);
  report.set("markov.sampled_gb_per_s",
             sampled_s > 0.0 ? (lane_steps * lane_bytes + csr_bytes) / sampled_s / 1e9 : 0.0,
             "GB/s", true);
  report.set("core.unattributed_s", untraced_s - (pi_s + spectral.seconds + sampled_s), "s");
  report.set("parallel.speedup_lanczos",
             options.spectral && spectral.seconds > 0.0 ? spectral1.seconds / spectral.seconds
                                                        : 0.0,
             "x");
  report.set("parallel.speedup_sampled", sampled_s > 0.0 ? sampled1_s / sampled_s : 0.0, "x");
  report.set("trace.overhead", untraced_s > 0.0 ? traced_s / untraced_s : 0.0, "x");
}

// ----------------------------------------------------- admission (sybil) --

void report_engine_stats(const sybil::AdmissionEngineStats& st, double precompute_s,
                         double verify_s, Report& report) {
  report.set("sybil.precompute_s", precompute_s, "s");
  report.set("sybil.verify_s", verify_s, "s");
  report.set("sybil.route_hops", static_cast<double>(st.route_hops_walked), "count");
  const double busy = precompute_s + verify_s;
  report.set("sybil.hops_per_s",
             busy > 0.0 ? static_cast<double>(st.route_hops_walked) / busy : 0.0, "1/s");
  const double lookups =
      static_cast<double>(st.verifier_cache_hits + st.verifier_cache_misses);
  report.set("sybil.cache_lookups", lookups, "count");
  report.set("sybil.cache_hit_ratio",
             lookups > 0.0 ? static_cast<double>(st.verifier_cache_hits) / lookups : 0.0,
             "ratio");
}

/// The serve phase of the traced admission run: one closed-loop client
/// against a fresh engine at w = kServeLength whose verifier caches are
/// warmed first, issuing back-to-back verify_batch calls of kBatchLanes
/// random suspects, round-robin over the verifiers. The same seed replays
/// the same suspect stream.
void serve(const graph::Graph& g, std::uint64_t seed, std::size_t batches, Report& report) {
  constexpr std::size_t kLanes = sybil::AdmissionEngine::kBatchLanes;
  sybil::AdmissionEngineConfig ec;
  ec.seed = seed;
  const std::vector<std::size_t> lengths{kServeLength};
  sybil::AdmissionEngine engine{g, ec, lengths};
  util::Rng rng{seed};
  std::vector<graph::NodeId> verifiers(kVerifiers);
  for (graph::NodeId& v : verifiers) v = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
  for (const graph::NodeId v : verifiers) (void)engine.verifier(v);

  std::vector<graph::NodeId> suspects(kLanes);
  std::vector<graph::NodeId> first_batch;
  std::vector<std::uint8_t> first_admitted;
  std::vector<double> latency;
  Crc crc;
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < batches; ++b) {
    for (graph::NodeId& s : suspects) s = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
    auto& verifier = engine.verifier(verifiers[b % verifiers.size()]);
    const auto tb = Clock::now();
    const auto result = engine.verify_batch(verifier, 0, suspects);
    latency.push_back(since(tb));
    report.op(check_batch(result, kLanes));
    crc.add(result.admitted.data(), result.admitted.size());
    if (b == 0) {
      first_batch = suspects;
      first_admitted = result.admitted;
    }
  }
  const double loop_s = since(t0);
  // Repeat check: the first verifier, reset to a fresh balance state, must
  // decide the first batch exactly as it did.
  auto& v0 = engine.verifier(verifiers[0]);
  v0.reset_balance();
  const auto again = engine.verify_batch(v0, 0, first_batch);
  report.op(again.admitted == first_admitted
                ? ""
                : "repeat of the first batch differs from the first decision");

  std::printf("serve: %zu verify_batch calls of %zu suspects (latency samples)\n", batches,
              kLanes);
  std::printf("digest admit-flags crc32=%s\n", hex32(crc.value()).c_str());
  report.set("sybil.verify_qps",
             static_cast<double>(batches) * static_cast<double>(kLanes) / loop_s, "1/s");
  report.set("sybil.verify_p50_ms", 1e3 * percentile(latency, 0.50), "ms");
  report.set("sybil.verify_p99_ms", 1e3 * percentile(latency, 0.99), "ms");
}

void run_sweep(const Input& in, const util::Cli& cli, Report& report) {
  const bool quick = cli.has("quick");
  const bool trace = cli.get_i64("trace", 0) != 0;
  const double budget = cli.get_f64("seconds", 10.0);
  const graph::Graph& g = in.graph();

  sybil::AdmissionSweepConfig config;
  config.route_lengths = kFig8Lengths;
  config.suspect_sample = quick ? kQuickSweepSuspects : kSweepSuspects;
  config.verifier_sample = kVerifiers;
  config.seed = static_cast<std::uint64_t>(cli.get_i64("seed", 1));

  std::optional<std::vector<double>> first;
  const auto check = [&](const std::vector<double>& fractions) {
    std::string problem = check_fractions(fractions);
    if (!first) {
      first = fractions;
      Crc crc;
      crc.add(fractions.data(), fractions.size() * sizeof(double));
      std::printf("digest admitted-fractions crc32=%s:", hex32(crc.value()).c_str());
      for (const double f : fractions) std::printf(" %.17g", f);
      std::printf("\n");
    } else if (problem.empty() &&
               (fractions.size() != first->size() ||
                std::memcmp(first->data(), fractions.data(),
                            fractions.size() * sizeof(double)) != 0)) {
      problem = "repeat admitted fractions differ from the first repeat";
    }
    report.op(problem);
  };
  const auto untraced = [&]() {
    const auto t0 = Clock::now();
    const auto points = sybil::admission_sweep(g, config);
    const double seconds = since(t0);
    std::vector<double> fractions;
    for (const auto& p : points) fractions.push_back(p.admitted_fraction);
    check(fractions);
    return seconds;
  };

  const double untraced_s = repeat_for(budget, untraced, "sweep_calls", report);
  report.set("op_s", untraced_s, "s");
  if (!trace) return;

  // Traced: admission_sweep's interior (identity ordering, no checkpoint)
  // driven from here — sample, build the engine, warm every verifier cold,
  // then sweep.
  const auto t0 = Clock::now();
  util::Rng rng{config.seed};
  const auto suspects = markov::pick_sources(g, config.suspect_sample, rng);
  const auto verifiers = markov::pick_sources(g, config.verifier_sample, rng);
  sybil::AdmissionEngineConfig ec;
  ec.r0 = config.r0;
  ec.balance_factor = config.balance_factor;
  ec.seed = config.seed;
  ec.frontier = config.frontier;
  sybil::AdmissionEngine engine{g, ec, config.route_lengths};
  for (const graph::NodeId v : verifiers) (void)engine.verifier(v);
  const double precompute_s = since(t0);
  const auto tv = Clock::now();
  const std::vector<double> fractions =
      engine.sweep_fractions(verifiers, suspects, config.route_lengths);
  const double verify_s = since(tv);
  const double traced_s = since(t0);
  check(fractions);
  report_engine_stats(engine.stats(), precompute_s, verify_s, report);
  report.set("trace.overhead", untraced_s > 0.0 ? traced_s / untraced_s : 0.0, "x");

  serve(g, config.seed, quick ? kQuickServeBatches : kServeBatches, report);
}

// ------------------------------------------------------------- commands --

int cmd_gen(const util::Cli& cli) {
  const Workload& w = find_workload(cli.get("workload", ""));
  const std::string out = cli.get("out", "");
  if (out.empty()) throw std::invalid_argument{"gen: --out is required"};
  const auto spec = gen::find_dataset(w.dataset);
  if (!spec) throw std::runtime_error{std::string{"unknown dataset "} + w.dataset};
  const graph::NodeId nodes = cli.has("quick") ? w.quick_nodes : w.nodes;
  const graph::Graph g = gen::build_dataset(*spec, nodes, kGraphSeed);  // already the LCC
  const std::string tmp = out + ".tmp";
  if (w.pack) {
    graph::sharded::WriteOptions options;
    options.compress = true;
    const std::uint32_t shards =
        graph::resolve_shard_count(graph::ShardPolicy{}, g.memory_bytes(), g.num_nodes(), 3u);
    const graph::ShardPlan plan = shards > 1
                                      ? graph::ShardPlan::balanced(g.offsets(), shards)
                                      : graph::ShardPlan::single(g.num_nodes());
    graph::sharded::write_smxg_file(tmp, g, plan, options);
  } else {
    std::ofstream file{tmp};
    graph::save_edge_list(g, file);
    file.close();
    if (!file) throw std::runtime_error{"gen: cannot write " + tmp};
  }
  std::filesystem::rename(tmp, out);
  std::printf("generated %s: %s stand-in, n=%u m=%llu\n", out.c_str(), w.dataset,
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

int cmd_run(const util::Cli& cli) {
  const Workload& w = find_workload(cli.get("workload", ""));
  const std::string input = cli.get("input", "");
  if (input.empty()) throw std::invalid_argument{"run: --input is required"};
  const auto hw = util::hardware_threads();
  util::set_thread_count(std::min(hw, kThreads));
  const bool trace = cli.get_i64("trace", 0) != 0;

  std::printf(
      "provenance workload=%s seed=%lld trace=%d threads=%zu nproc=%zu simd=%s l3_bytes=%ld "
      "build=%s quick=%d\n",
      w.name, static_cast<long long>(cli.get_i64("seed", 1)), trace ? 1 : 0,
      util::thread_count(), hw, linalg::simd::tier_name(linalg::simd::active_tier()),
      l3_bytes(), PERFBENCH_BUILD_TYPE, cli.has("quick") ? 1 : 0);

  Report report;
  const Input in = setup(w, input, report);
  switch (w.kind) {
    case Kind::kMeasure: run_measure(w, in, cli, report); break;
    case Kind::kSweep: run_sweep(in, cli, report); break;
  }
  std::fflush(stdout);
  report.print();
  return 0;
}

/// The checkers must trip on corrupted outputs.
int cmd_selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  const std::vector<double> good{0.9, 0.5, 0.5, 0.25, 0.1};
  expect(check_trajectory(good).empty(), "valid trajectory passes");
  std::vector<double> bad = good;
  bad[3] = 0.5 + 1e-9;
  expect(!check_trajectory(bad).empty(), "rising trajectory trips");
  bad = good;
  bad[2] = 0.5 + 0.5 * kTvdSlack;
  expect(check_trajectory(bad).empty(), "rise within slack passes");
  bad = good;
  bad[0] = 1.0 + 1e-9;
  expect(!check_trajectory(bad).empty(), "tvd above 1 trips");
  bad = good;
  bad[4] = -1e-15;
  expect(!check_trajectory(bad).empty(), "negative tvd trips");
  bad = good;
  bad[1] = std::nan("");
  expect(!check_trajectory(bad).empty(), "NaN tvd trips");
  expect(check_fractions(std::vector<double>{0.0, 0.61, 1.0}).empty(), "valid fractions pass");
  expect(!check_fractions(std::vector<double>{0.5, 1.5}).empty(), "fraction above 1 trips");
  expect(!check_measure(true, false, 300, std::nullopt).empty(),
         "unconverged Lanczos trips");
  markov::SampledMixing sampled{{0, 1}, {good, {0.9, 0.8, 0.85, 0.2, 0.1}}};
  expect(!check_measure(false, false, 0, sampled).empty(),
         "corrupted trajectory in a measurement trips");
  sybil::AdmissionEngine::BatchResult batch;
  batch.admitted.assign(4, 1);
  batch.admitted_count = 3;
  batch.rejected_balance = 1;
  expect(!check_batch(batch, 4).empty(), "inconsistent batch counts trip");
  batch.admitted[3] = 0;
  expect(check_batch(batch, 4).empty(), "consistent batch passes");
  std::printf("selftest: %s\n", failures == 0 ? "pass" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs("usage: socmix_perfbench gen|run|selftest [--flags]\n", stderr);
    return 2;
  }
  const std::string command = argv[1];
  const util::Cli cli{argc - 1, argv + 1};
  try {
    if (command == "gen") return cmd_gen(cli);
    if (command == "run") return cmd_run(cli);
    if (command == "selftest") return cmd_selftest();
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "socmix_perfbench: %s\n", e.what());
    return 1;
  }
}
