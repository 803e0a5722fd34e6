// Micro benchmarks (google-benchmark): throughput of the kernels the
// measurement pipeline is built on.
//
// Custom main (instead of benchmark_main) so the run's accumulated obs
// metrics land in bench_results/micro_kernels_metrics.json — the counters
// double as a sanity check that the benchmarked kernels took the expected
// paths (unrolled vs generic sweeps, fused-TVD, pool utilization) — and so
// everything reports through the process bench::Harness into
// bench_results/BENCH_micro-kernels.json (the artifact bench_compare
// gates on). --obs-overhead additionally times the fused sweep bare vs
// fully instrumented (counters + background sampler) and records the
// delta in bench_results/micro_obs_overhead.csv.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_harness/harness.hpp"
#include "bench_harness/provenance.hpp"
#include "obs/sampler.hpp"

#include "gen/barabasi_albert.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/sampling.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/simd/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/walk_operator.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/random_walk.hpp"
#include "markov/stationary.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/checksum.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace socmix;

graph::Graph make_ba(graph::NodeId n) {
  util::Rng rng{7};
  return gen::barabasi_albert(n, 5, rng);
}

// Mirrors every non-aggregate google-benchmark repetition into the process
// harness (entry "gbench/<name>", seconds per iteration) so the suite
// lands in the BENCH artifact alongside the ablation entries, while the
// console table prints exactly as before. google-benchmark owns warmup
// and repetition policy here; pass --benchmark_repetitions=N for
// multi-repeat entries (the perf gate runs --simd-only and compares only
// the harness-driven ablation entries, which always have >= 5 repeats).
class HarnessReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      bench::Harness::process().record("gbench/" + run.benchmark_name(),
                                       run.real_accumulated_time / iters);
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

void BM_SpMV(benchmark::State& state) {
  const auto g = make_ba(static_cast<graph::NodeId>(state.range(0)));
  const linalg::WalkOperator op{g};
  std::vector<double> x(op.dim());
  std::vector<double> y(op.dim());
  util::Rng rng{1};
  linalg::randomize_unit(x, rng);
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
    std::swap(x, y);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_half_edges()));
}
BENCHMARK(BM_SpMV)->Arg(1000)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_MonteCarloWalks(benchmark::State& state) {
  const auto g = make_ba(10000);
  util::Rng rng{3};
  const auto length = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::walk_endpoint(g, 0, length, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MonteCarloWalks)->Arg(10)->Arg(100)->Arg(1000);

void BM_BfsSample(benchmark::State& state) {
  const auto g = make_ba(50000);
  util::Rng rng{4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::bfs_sample(g, static_cast<graph::NodeId>(state.range(0)), rng));
  }
}
BENCHMARK(BM_BfsSample)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// Lanczos to mu accuracy 1e-7 on a slow-mixing community graph (small
// spectral gap — the hard case).
graph::Graph slow_graph() {
  util::Rng rng{11};
  return graph::largest_component(
             gen::community_powerlaw(8, 400, 3, 0.6, 2.0, rng))
      .graph;
}

void BM_SlemLanczos(benchmark::State& state) {
  const auto g = slow_graph();
  for (auto _ : state) {
    const linalg::WalkOperator op{g};
    linalg::LanczosOptions options;
    options.tolerance = 1e-7;
    benchmark::DoNotOptimize(linalg::slem_spectrum(op, options));
  }
}
BENCHMARK(BM_SlemLanczos)->Unit(benchmark::kMillisecond);

// ------------------------------------------------- parallel/batched SpMM --
// The multi-source evolution engine behind measure_sampled_mixing. Items
// are lane-edge updates (half_edges x lanes per sweep), so items/s is
// directly comparable across the swept widths (8, 16 and 32 lanes).

void BM_BatchedEvolution(benchmark::State& state) {
  util::set_thread_count(1);  // isolate block-reuse from threading
  const auto g = make_ba(static_cast<graph::NodeId>(state.range(0)));
  const auto block = static_cast<std::size_t>(state.range(1));
  markov::BatchedEvolver evolver{g, 0.0, block};
  std::vector<graph::NodeId> sources(block);
  for (std::size_t b = 0; b < block; ++b) sources[b] = static_cast<graph::NodeId>(b);
  evolver.seed_point_masses(sources);
  for (auto _ : state) {
    evolver.step();
    benchmark::DoNotOptimize(&evolver);
  }
  util::set_thread_count(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_half_edges()) *
                          static_cast<std::int64_t>(block));
}
BENCHMARK(BM_BatchedEvolution)
    ->Args({100000, 8})->Args({100000, 16})->Args({100000, 32})
    ->Unit(benchmark::kMicrosecond);

void BM_BatchedEvolutionFusedTvd(benchmark::State& state) {
  util::set_thread_count(1);
  const auto g = make_ba(static_cast<graph::NodeId>(state.range(0)));
  const auto block = static_cast<std::size_t>(state.range(1));
  const auto pi = markov::stationary_distribution(g);
  markov::BatchedEvolver evolver{g, 0.0, block};
  std::vector<graph::NodeId> sources(block);
  for (std::size_t b = 0; b < block; ++b) sources[b] = static_cast<graph::NodeId>(b);
  evolver.seed_point_masses(sources);
  std::vector<double> tvd(block);
  for (auto _ : state) {
    evolver.step_with_tvd(pi, tvd);
    benchmark::DoNotOptimize(tvd.data());
  }
  util::set_thread_count(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_half_edges()) *
                          static_cast<std::int64_t>(block));
}
BENCHMARK(BM_BatchedEvolutionFusedTvd)
    ->Args({100000, 8})->Args({100000, 32})->Unit(benchmark::kMicrosecond);

// End-to-end multi-source mixing measurement: the seed's scalar
// one-source-at-a-time loop vs the batched + threaded engine. Items are
// lane-edge updates (sources x steps x half_edges).

constexpr std::size_t kMixSources = 32;
constexpr std::size_t kMixSteps = 10;

void BM_MultiSourceMixingScalar(benchmark::State& state) {
  util::set_thread_count(1);  // the seed path: one source at a time, one core
  const auto g = make_ba(static_cast<graph::NodeId>(state.range(0)));
  const auto pi = markov::stationary_distribution(g);
  for (auto _ : state) {
    // The pre-batching shape of measure_sampled_mixing: one evolution per
    // source (one live lane of an 8-lane block).
    std::vector<std::vector<double>> trajectories;
    for (std::size_t s = 0; s < kMixSources; ++s) {
      trajectories.push_back(
          markov::tvd_trajectory(g, static_cast<graph::NodeId>(s), kMixSteps, pi));
    }
    benchmark::DoNotOptimize(trajectories.data());
  }
  util::set_thread_count(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_half_edges()) *
                          static_cast<std::int64_t>(kMixSources * kMixSteps));
}
BENCHMARK(BM_MultiSourceMixingScalar)
    ->Arg(100000)->Arg(1000000)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_MultiSourceMixingBatched(benchmark::State& state) {
  util::set_thread_count(static_cast<std::size_t>(state.range(1)));
  const auto g = make_ba(static_cast<graph::NodeId>(state.range(0)));
  std::vector<graph::NodeId> sources(kMixSources);
  for (std::size_t s = 0; s < kMixSources; ++s) sources[s] = static_cast<graph::NodeId>(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::measure_sampled_mixing(g, sources, kMixSteps));
  }
  util::set_thread_count(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_half_edges()) *
                          static_cast<std::int64_t>(kMixSources * kMixSteps));
}
BENCHMARK(BM_MultiSourceMixingBatched)
    ->Args({100000, 1})->Args({100000, 4})
    ->Args({1000000, 1})->Args({1000000, 4})
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Thread scaling of the row-partitioned symmetric SpMV that Lanczos and
// power iteration sit on.
void BM_SpMVThreaded(benchmark::State& state) {
  util::set_thread_count(static_cast<std::size_t>(state.range(1)));
  const auto g = make_ba(static_cast<graph::NodeId>(state.range(0)));
  const linalg::WalkOperator op{g};
  std::vector<double> x(op.dim());
  std::vector<double> y(op.dim());
  util::Rng rng{1};
  linalg::randomize_unit(x, rng);
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
    std::swap(x, y);
  }
  util::set_thread_count(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_half_edges()));
}
BENCHMARK(BM_SpMVThreaded)
    ->Args({100000, 1})->Args({100000, 2})->Args({100000, 4})
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_TotalVariation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n, 1.0 / static_cast<double>(n));
  std::vector<double> b(n, 0.0);
  b[0] = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::total_variation(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TotalVariation)->Arg(1000)->Arg(100000);

// ------------------------------------------------------- simd tier roofline --
// Hand-rolled ablation (not google-benchmark) because it forces kernel
// tiers via simd::set_tier and emits its own CSVs:
//   bench_results/micro_simd.csv  per tier throughput of the batched
//                                 SpMM + fused-TVD sweep, per tier time of
//                                 a Lanczos solve (its basis kernels are
//                                 the tier's), of the single-vector
//                                 SpMV (WalkOperator::apply; one kernel,
//                                 so one row), and per tier CRC-32 GB/s,
//   bench_results/e2e_simd.csv    end-to-end measure_sampled_mixing before
//                                 (forced scalar) / after (dispatched).
// Run with --simd-only for just this part (CI smoke), --quick for small
// sizes. Harness entries keep their "/f64" suffix so committed baselines
// stay comparable.

namespace simd = socmix::linalg::simd;

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// Repeated timed runs of `steps` fused SpMM+TVD sweeps at 32 lanes, each
/// recorded into the process harness under `entry` (so the BENCH artifact
/// keeps every repeat plus hardware counters); returns the best wall
/// seconds — the min sheds scheduler noise and is what the CSV speedup
/// columns have always compared.
double time_batched_sweeps(const graph::Graph& g, std::span<const double> pi,
                           std::size_t steps, const std::string& entry) {
  constexpr std::size_t kLanes = 32;
  markov::BatchedEvolver evolver{g, 0.0, kLanes};
  std::vector<graph::NodeId> sources(kLanes);
  for (std::size_t b = 0; b < kLanes; ++b) sources[b] = static_cast<graph::NodeId>(b);
  std::vector<double> tvd(kLanes);
  bench::Harness& harness = bench::Harness::process();
  harness.set_items(entry, static_cast<double>(g.num_half_edges()) *
                               static_cast<double>(kLanes) * static_cast<double>(steps));
  const std::size_t repeats = bench::Harness::process_repeats(5);
  double best = 1e300;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    evolver.seed_point_masses(sources);
    evolver.step_with_tvd(pi, tvd);  // warm-up sweep: faults in, caches primed
    best = std::min(best, harness.time_once(entry, [&] {
      for (std::size_t t = 0; t < steps; ++t) evolver.step_with_tvd(pi, tvd);
    }));
    benchmark::DoNotOptimize(tvd.data());
  }
  return best;
}

/// Repeated timed runs of `applies` WalkOperator applies — the single-vector
/// SpMV Lanczos leans on — recorded into the process harness under `entry`
/// like time_batched_sweeps; returns the best wall seconds.
double time_spmv_applies(const graph::Graph& g, std::size_t applies, const std::string& entry) {
  const linalg::WalkOperator op{g};
  std::vector<double> x(op.dim());
  std::vector<double> y(op.dim());
  util::Rng rng{1};
  linalg::randomize_unit(x, rng);
  bench::Harness& harness = bench::Harness::process();
  harness.set_items(entry, static_cast<double>(g.num_half_edges()) * static_cast<double>(applies));
  const std::size_t repeats = bench::Harness::process_repeats(5);
  double best = 1e300;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    op.apply(x, y);  // warm-up apply
    best = std::min(best, harness.time_once(entry, [&] {
      for (std::size_t t = 0; t < applies; ++t) {
        op.apply(x, y);
        std::swap(x, y);
      }
    }));
    benchmark::DoNotOptimize(x.data());
  }
  return best;
}

/// Repeated timed Lanczos solves (slem_spectrum) of `g` on the active tier,
/// recorded into the process harness under `entry` like
/// time_batched_sweeps; returns the best wall seconds and, through
/// `applies`, the operator applies one solve takes.
double time_lanczos(const graph::Graph& g, const std::string& entry, std::size_t& applies) {
  const linalg::WalkOperator op{g};
  applies = linalg::slem_spectrum(op).iterations;  // warm-up solve
  bench::Harness& harness = bench::Harness::process();
  harness.set_items(entry, static_cast<double>(g.num_half_edges()) * static_cast<double>(applies));
  const std::size_t repeats = bench::Harness::process_repeats(5);
  double best = 1e300;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    best = std::min(best, harness.time_once(entry, [&] {
      benchmark::DoNotOptimize(linalg::slem_spectrum(op).slem);
    }));
  }
  return best;
}

/// Roofline traffic model for one WalkOperator apply: per edge, the
/// gathered prescaled source and the streamed neighbor id; per row, the
/// prescale pass (read x and inv_sqrt_deg, write scaled) and the epilogue
/// (CSR offset, row scale, x, y).
double spmv_bytes(const graph::Graph& g) {
  const double m = static_cast<double>(g.num_half_edges());
  const double n = static_cast<double>(g.num_nodes());
  const double per_edge = sizeof(double) + sizeof(graph::NodeId);
  const double per_row = 3.0 * sizeof(double) + sizeof(graph::EdgeIndex) + 3.0 * sizeof(double);
  return m * per_edge + n * per_row;
}

/// Roofline traffic model for one 32-lane fused sweep: per edge, a gather
/// of the prescaled lane row plus the streamed neighbor id; per row, the
/// written lane row of the other prescaled block, the CSR offset, 1/deg
/// and the stationary mass. The state is kept prescaled and ping-ponged,
/// so no prescale pass and no read of the old row exist.
double sweep_bytes(const graph::Graph& g) {
  const double lanes = 32.0;
  const double state = sizeof(double);
  const double m = static_cast<double>(g.num_half_edges());
  const double n = static_cast<double>(g.num_nodes());
  const double per_edge = lanes * state + sizeof(graph::NodeId);
  const double per_row = lanes * state + sizeof(graph::EdgeIndex) + 2.0 * sizeof(double);
  return m * per_edge + n * per_row;
}

void run_simd_ablation(bool quick) {
  util::set_thread_count(1);  // roofline per core; threading is measured above
  const auto n = static_cast<graph::NodeId>(quick ? 20000 : 200000);
  const std::size_t steps = quick ? 4 : 24;
  const auto g = make_ba(n);
  const auto pi = markov::stationary_distribution(g);

  struct Row {
    simd::Tier tier;
    double seconds;
    double gb;
  };
  std::vector<Row> rows;
  for (const simd::Tier tier : available_tiers()) {
    if (!simd::set_tier(tier)) continue;
    const std::string entry = std::string{"spmm_tvd/"} + simd::tier_name(tier) + "/f64";
    const double seconds = time_batched_sweeps(g, pi, steps, entry);
    simd::reset_tier();
    rows.push_back({tier, seconds, 1e-9 * sweep_bytes(g) * static_cast<double>(steps)});
  }

  // Every tier's table holds the same SpMV kernel, so it is timed once.
  constexpr std::size_t kApplies = 40;
  const Row spmv{simd::active_tier(), time_spmv_applies(g, kApplies, "spmv/f64"),
                 1e-9 * spmv_bytes(g) * static_cast<double>(kApplies)};

  std::printf("\n== batched SpMM + fused TVD (n=%u, m=%llu, 32 lanes, %zu sweeps) ==\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()), steps);
  const auto dir = util::bench_results_dir();
  util::CsvWriter csv{dir ? *dir + "/micro_simd.csv" : "/dev/null"};
  csv.row({"kernel", "tier", "seconds", "gb_moved", "gb_per_s", "speedup_vs_scalar"});
  // The scalar tier is always available, so it always runs first.
  const double baseline = rows.front().seconds;
  for (const Row& row : rows) {
    const double speedup = baseline / row.seconds;
    std::printf("  %-7s  %8.4f s  %6.2f GB/s  %5.2fx\n", simd::tier_name(row.tier),
                row.seconds, row.gb / row.seconds, speedup);
    csv.row({"batched_spmm_tvd", simd::tier_name(row.tier), util::fmt_sci(row.seconds, 6),
             util::fmt_fixed(row.gb, 4), util::fmt_fixed(row.gb / row.seconds, 3),
             util::fmt_fixed(speedup, 3)});
  }

  // Lanczos on a slow-mixing stand-in: the SpMV plus the Krylov-basis
  // kernels (dot, axpy, divide, combine) of the tier.
  const graph::Graph lj =
      gen::build_dataset(*gen::find_dataset("Livejournal A"), quick ? 5000 : 20000, 42);
  std::printf("== Lanczos slem_spectrum (Livejournal A stand-in, n=%u) ==\n", lj.num_nodes());
  double lanczos_scalar = 0.0;  // the scalar tier runs first
  for (const simd::Tier tier : available_tiers()) {
    if (!simd::set_tier(tier)) continue;
    std::size_t applies = 0;
    const double seconds =
        time_lanczos(lj, std::string{"lanczos/"} + simd::tier_name(tier), applies);
    simd::reset_tier();
    if (lanczos_scalar == 0.0) lanczos_scalar = seconds;
    const double speedup = lanczos_scalar / seconds;
    std::printf("  %-7s  %8.4f s  %4zu applies  %5.2fx\n", simd::tier_name(tier), seconds,
                applies, speedup);
    csv.row({"lanczos", simd::tier_name(tier), util::fmt_sci(seconds, 6), "", "",
             util::fmt_fixed(speedup, 3)});
  }

  std::printf("== single-vector SpMV (WalkOperator::apply, %zu applies, every tier) ==\n",
              kApplies);
  std::printf("  %-7s  %8.4f s  %6.2f GB/s\n", simd::tier_name(spmv.tier), spmv.seconds,
              spmv.gb / spmv.seconds);
  csv.row({"spmv", simd::tier_name(spmv.tier), util::fmt_sci(spmv.seconds, 6),
           util::fmt_fixed(spmv.gb, 4), util::fmt_fixed(spmv.gb / spmv.seconds, 3),
           util::fmt_fixed(1.0, 3)});

  // CRC-32 per tier over one block of a streamed pack open (1 MiB, so the
  // bytes are cache-resident as they are at open): the check every pack
  // open and write runs on each payload byte.
  constexpr std::size_t kCrcBytes = std::size_t{1} << 20;
  const std::size_t crc_passes = quick ? 16 : 128;
  std::vector<std::byte> crc_block(kCrcBytes);
  util::Rng crc_rng{7};
  for (std::byte& b : crc_block) b = static_cast<std::byte>(crc_rng() & 0xffu);
  std::printf("== CRC-32 (1 MiB block, %zu passes) ==\n", crc_passes);
  double crc_scalar = 0.0;  // the scalar tier runs first
  for (const simd::Tier tier : available_tiers()) {
    if (!simd::set_tier(tier)) continue;
    const std::string entry = std::string{"crc32/"} + simd::tier_name(tier);
    const simd::Crc32UpdateFn crc = simd::dispatch().crc32_update;
    bench::Harness& harness = bench::Harness::process();
    harness.set_items(entry, static_cast<double>(kCrcBytes * crc_passes));
    std::uint32_t state = util::kCrc32Init;
    double seconds = 1e300;
    for (std::size_t rep = 0; rep < bench::Harness::process_repeats(5); ++rep) {
      seconds = std::min(seconds, harness.time_once(entry, [&] {
        for (std::size_t pass = 0; pass < crc_passes; ++pass) state = crc(state, crc_block);
      }));
    }
    benchmark::DoNotOptimize(state);
    simd::reset_tier();
    if (crc_scalar == 0.0) crc_scalar = seconds;
    const double gb = 1e-9 * static_cast<double>(kCrcBytes * crc_passes);
    std::printf("  %-7s  %8.4f s  %6.2f GB/s  %5.2fx\n", simd::tier_name(tier), seconds,
                gb / seconds, crc_scalar / seconds);
    csv.row({"crc32", simd::tier_name(tier), util::fmt_sci(seconds, 6), util::fmt_fixed(gb, 4),
             util::fmt_fixed(gb / seconds, 3), util::fmt_fixed(crc_scalar / seconds, 3)});
  }

  // End-to-end: the sampled mixing measurement on the forced scalar tier
  // vs the dispatched best tier.
  const std::size_t e2e_steps = quick ? 4 : 16;
  std::vector<graph::NodeId> sources(32);
  for (std::size_t s = 0; s < 32; ++s) sources[s] = static_cast<graph::NodeId>(s);
  // Each config runs process_repeats() times through the harness (entry
  // "e2e/<config>/f64"); the table and CSV keep reporting the min.
  const auto time_e2e = [&](const char* config) {
    const std::string entry = std::string{"e2e/"} + config + "/f64";
    double best_s = 1e300;
    for (std::size_t rep = 0; rep < bench::Harness::process_repeats(5); ++rep) {
      best_s = std::min(best_s, bench::Harness::process().time_once(entry, [&] {
        benchmark::DoNotOptimize(markov::measure_sampled_mixing(g, sources, e2e_steps));
      }));
    }
    return best_s;
  };
  struct E2eRow {
    const char* config;
    const char* tier;
    double seconds;
  };
  std::vector<E2eRow> e2e;
  simd::set_tier(simd::Tier::kScalar);
  e2e.push_back({"before", "scalar", time_e2e("before")});
  simd::reset_tier();
  e2e.push_back({"after", simd::tier_name(simd::active_tier()), time_e2e("after")});

  std::printf("== end-to-end measure_sampled_mixing (32 sources x %zu steps) ==\n",
              e2e_steps);
  util::CsvWriter e2e_csv{dir ? *dir + "/e2e_simd.csv" : "/dev/null"};
  e2e_csv.row({"config", "tier", "seconds", "speedup_vs_before"});
  for (const E2eRow& row : e2e) {
    const double speedup = e2e.front().seconds / row.seconds;
    std::printf("  %-6s %-7s  %8.4f s  %5.2fx\n", row.config, row.tier, row.seconds,
                speedup);
    e2e_csv.row({row.config, row.tier, util::fmt_sci(row.seconds, 6),
                 util::fmt_fixed(speedup, 3)});
  }
  util::set_thread_count(0);
}

// ------------------------------------------------ observability overhead --
// The same fused-sweep region timed two ways: bare (util::Timer only, the
// pre-harness discipline) and fully instrumented (Harness::time_once with
// hardware counters armed while the process sampler snapshots the metrics
// registry in the background). Rounds interleave the two arms with the
// order alternating — an adjacent-pair discipline — and the
// per-arm min is compared, so a co-tenant burst cannot masquerade as
// instrumentation cost. The acceptance bar is <= 2% overhead; the result
// goes to bench_results/micro_obs_overhead.csv.
void run_obs_overhead(bool quick) {
  util::set_thread_count(1);
  // n is chosen so the lane state stays LLC-resident: a larger graph
  // spills to DRAM and the arm-to-arm comparison drowns in cache-occupancy
  // noise (±3% per round) instead of measuring instrumentation. A
  // cache-resident region is also the stricter test -- overhead is the
  // largest relative fraction when the kernel itself is fastest.
  const auto g = make_ba(static_cast<graph::NodeId>(20000));
  const auto pi = markov::stationary_distribution(g);
  // The region must still dwarf the per-sample costs (two perf ioctls,
  // one /proc read): steps put it at tens of milliseconds.
  const std::size_t steps = quick ? 4 : 16;
  const std::size_t rounds = quick ? 6 : 12;
  constexpr std::size_t kLanes = 32;
  markov::BatchedEvolver evolver{g, 0.0, kLanes};
  std::vector<graph::NodeId> sources(kLanes);
  for (std::size_t b = 0; b < kLanes; ++b) sources[b] = static_cast<graph::NodeId>(b);
  std::vector<double> tvd(kLanes);
  const auto sweep = [&] {
    evolver.seed_point_masses(sources);
    for (std::size_t t = 0; t < steps; ++t) evolver.step_with_tvd(pi, tvd);
    benchmark::DoNotOptimize(tvd.data());
  };

  const auto dir = util::bench_results_dir();
  obs::SamplerOptions sampler_options;
  sampler_options.path =
      dir ? *dir + "/micro_obs_overhead_sample.jsonl" : std::string{"/dev/null"};
  sampler_options.interval_ms = 100;
  obs::start_process_sampler(sampler_options);

  bench::Harness& harness = bench::Harness::process();
  sweep();  // warm both arms: graph faulted in, caches primed
  double bare_min = 1e300;
  double instrumented_min = 1e300;
  std::vector<double> ratios;
  ratios.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    double bare = 1e300;
    double instrumented = 1e300;
    const auto run_bare = [&] {
      const util::Timer timer;
      sweep();
      const double s = timer.seconds();
      harness.record("obs_overhead/bare", s);
      bare = std::min(bare, s);
    };
    const auto run_instrumented = [&] {
      const double s = harness.time_once("obs_overhead/instrumented", sweep);
      instrumented = std::min(instrumented, s);
    };
    // BIIB-IBBI within the round, mirrored on alternate rounds so neither
    // arm systematically runs first, last, or after a particular
    // neighbour. The round ratio compares each arm's MIN of its four
    // runs: on a shared box a preemption burst only inflates a run, so
    // the min discards bursts instead of averaging them in, and because
    // both mins come from the same ~300 ms window there is none of the
    // cross-window drift that makes whole-bench min-vs-min unsound.
    static constexpr char kOrder[2][8] = {
        {'B', 'I', 'I', 'B', 'I', 'B', 'B', 'I'},
        {'I', 'B', 'B', 'I', 'B', 'I', 'I', 'B'},
    };
    for (const char arm : kOrder[r % 2]) {
      (arm == 'B') ? run_bare() : run_instrumented();
    }
    bare_min = std::min(bare_min, bare);
    instrumented_min = std::min(instrumented_min, instrumented);
    ratios.push_back(instrumented / bare);
  }
  obs::stop_process_sampler();

  // Headline number: interquartile mean of the per-round ratios. Drift
  // shared across a round (frequency, co-tenant load) divides out in each
  // ratio, and trimming the top and bottom quarter discards the rounds
  // where a scheduler blip lands inside one arm while still averaging the
  // central bulk. Comparing the arms' independent minima instead is NOT
  // sound here: at these region sizes the two minima disagree by several
  // percent in either direction from run placement alone (the A/A effect
  // separately-allocated evolvers show).
  std::fprintf(stderr, "round ratios:");
  for (const double x : ratios) std::fprintf(stderr, " %+.2f%%", (x - 1.0) * 100.0);
  std::fprintf(stderr, "\n");
  std::sort(ratios.begin(), ratios.end());
  const std::size_t trim = ratios.size() / 4;
  double ratio_sum = 0.0;
  for (std::size_t i = trim; i < ratios.size() - trim; ++i) ratio_sum += ratios[i];
  const double overhead_pct =
      (ratio_sum / static_cast<double>(ratios.size() - 2 * trim) - 1.0) * 100.0;
  std::printf("\n== observability overhead (fused sweep, %zu balanced rounds) ==\n",
              rounds);
  std::printf("  bare min %.4f s, instrumented min %.4f s, paired overhead %+.2f%%\n",
              bare_min, instrumented_min, overhead_pct);

  util::CsvWriter csv{dir ? *dir + "/micro_obs_overhead.csv" : "/dev/null"};
  csv.row({"kernel", "rounds", "steps", "bare_seconds", "instrumented_seconds",
           "overhead_pct"});
  csv.row({"batched_spmm_tvd", std::to_string(rounds), std::to_string(steps),
           util::fmt_sci(bare_min, 6), util::fmt_sci(instrumented_min, 6),
           util::fmt_fixed(overhead_pct, 3)});
  if (csv.ok() && dir) {
    std::fprintf(stderr, "wrote %s/micro_obs_overhead.csv\n", dir->c_str());
  }
  util::set_thread_count(0);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our custom flags before google-benchmark sees (and rejects) them.
  bool quick = false;
  bool simd_only = false;
  bool obs_overhead = false;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--simd-only") == 0) {
      simd_only = true;
    } else if (std::strcmp(argv[i], "--obs-overhead") == 0) {
      obs_overhead = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // All timing reports through the process harness; the atexit hook writes
  // bench_results/BENCH_micro-kernels.json once everything below has run.
  // The overhead mode gets its own artifact name so an --obs-overhead run
  // never clobbers the gate-able kernel baseline.
  bench::Harness::configure_process(obs_overhead ? "micro_kernels_obs" : "micro_kernels");
  bench::Harness::process().set_flag("quick", quick ? "true" : "false");
  bench::apply_metrics_provenance();

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) return 1;
  if (!simd_only && !obs_overhead) {
    HarnessReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();

  if (obs_overhead) {
    run_obs_overhead(quick);
  } else {
    run_simd_ablation(quick);
  }

  // The overhead mode exercises only one kernel; don't let its sparse
  // registry clobber the metrics snapshot from a real ablation run.
  if (const auto dir = obs_overhead ? std::nullopt : util::bench_results_dir()) {
    const std::string path = *dir + "/micro_kernels_metrics.json";
    std::ofstream out{path};
    if (out) {
      auto snapshot = socmix::obs::Registry::instance().snapshot();
      socmix::obs::stamp_provenance(snapshot);
      socmix::obs::write_metrics_json(snapshot, out);
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  }
  return 0;
}
