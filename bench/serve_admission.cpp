// Admission-as-a-service load generator: drives the AdmissionEngine the
// way a verification service would — cached verifiers filed once in one
// tail directory per length, then rounds of batched suspect queries
// (verify_batch, kBatchLanes-wide) against them — and reports
// queries/sec plus p50/p99 batch-verify latency.
//
// One Table-1 stand-in per paper mixing class (the micro_shard pick), at
// the paper's w = 10 operating point. Per round the per-batch wall times
// are sorted into p50/p99 and recorded as harness samples, so the
// committed baseline
// (bench_results/baseline/BENCH_serve-admission.json) carries one
// p50/p99 distribution per dataset and the CI perf gate can
// `bench_compare --require` the entries:
//
//   serve/<dataset>/precompute   verifier index build, one sample/round
//   serve/<dataset>/round        whole query round (items = queries, so
//                                items/s is the advertised QPS)
//   serve/<dataset>/p50          median per-batch verify latency
//   serve/<dataset>/p99          tail per-batch verify latency
//
//   serve_admission [--nodes N] [--rounds N] [--batches N] [--verifiers N]
//                   [--quick] [--out bench_results/serve_admission.csv]
//                   [--bench-out PATH] [--bench-repeats N]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_harness/harness.hpp"
#include "gen/datasets.hpp"
#include "graph/graph.hpp"
#include "sybil/admission_engine.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace socmix;

namespace {

constexpr std::uint64_t kSeed = 42;

const char* class_name(gen::MixingClass c) {
  switch (c) {
    case gen::MixingClass::kFast: return "fast";
    case gen::MixingClass::kModerate: return "moderate";
    case gen::MixingClass::kSlow: return "slow";
  }
  return "?";
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  bench::Harness::configure_process(cli);
  const bool quick = cli.has("quick");
  const std::size_t rounds = cli.get_count_or_exit("rounds", quick ? 3 : 5);
  const std::size_t batches = cli.get_count_or_exit("batches", quick ? 6 : 24);
  const std::size_t verifier_count = cli.get_count_or_exit("verifiers", 4);
  bench::Harness::process().set_flag("rounds", std::to_string(rounds));
  bench::Harness::process().set_flag("batches", std::to_string(batches));

  // First Table-1 config of each paper mixing class (micro_shard uses the
  // same picks, so the lanes are comparable).
  std::vector<gen::DatasetSpec> picks;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    bool seen = false;
    for (const auto& p : picks) seen |= p.paper_mixing_class == spec.paper_mixing_class;
    if (!seen) picks.push_back(spec);
  }

  std::cout << "serve_admission: batched verification against warm verifier caches\n";
  util::TextTable table;
  table.header({"dataset", "class", "n", "r", "queries/s", "p50 ms", "p99 ms"});
  std::vector<std::vector<std::string>> csv_rows;

  for (const gen::DatasetSpec& spec : picks) {
    const auto nodes = static_cast<graph::NodeId>(cli.get_count_or_exit(
        "nodes",
        quick ? std::min<graph::NodeId>(4'000, spec.default_nodes)
              : std::min<graph::NodeId>(20'000, spec.default_nodes),
        std::numeric_limits<graph::NodeId>::max()));
    const graph::Graph g = gen::build_dataset(spec, nodes, kSeed);
    const std::string prefix = "serve/" + util::slugify(spec.name);
    std::fprintf(stderr, "%s (%s): n=%u m=%llu\n", spec.name.c_str(),
                 class_name(spec.paper_mixing_class), g.num_nodes(),
                 static_cast<unsigned long long>(g.num_edges()));

    sybil::AdmissionEngineConfig config;
    config.seed = kSeed;
    const std::vector<std::size_t> lengths{10};  // the paper's Fig.-8 knee
    util::Rng rng{kSeed};
    std::vector<graph::NodeId> verifiers;
    for (std::size_t v = 0; v < verifier_count; ++v) {
      verifiers.push_back(static_cast<graph::NodeId>(rng.below(g.num_nodes())));
    }

    std::vector<double> round_p50;
    std::vector<double> round_p99;
    double queries_per_second = 0.0;
    const std::size_t queries_per_round =
        batches * sybil::AdmissionEngine::kBatchLanes;
    bench::Harness::process().set_items(prefix + "/round",
                                        static_cast<double>(queries_per_round));
    for (std::size_t round = 0; round < rounds; ++round) {
      // A fresh engine per round: the precompute sample is a true cold
      // index build, and the query rounds that follow all hit the cache.
      sybil::AdmissionEngine engine{g, config, lengths};
      bench::Harness::process().time_once(prefix + "/precompute", [&] {
        for (const graph::NodeId vnode : verifiers) (void)engine.verifier(vnode);
      });

      std::vector<double> batch_seconds;
      batch_seconds.reserve(batches);
      std::vector<graph::NodeId> suspects(sybil::AdmissionEngine::kBatchLanes);
      const double round_seconds =
          bench::Harness::process().time_once(prefix + "/round", [&] {
            for (std::size_t b = 0; b < batches; ++b) {
              for (graph::NodeId& s : suspects) {
                s = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
              }
              auto& verifier = engine.verifier(verifiers[b % verifiers.size()]);
              const util::Timer timer;
              (void)engine.verify_batch(verifier, 0, suspects);
              batch_seconds.push_back(timer.seconds());
            }
          });
      const double p50 = percentile(batch_seconds, 0.50);
      const double p99 = percentile(batch_seconds, 0.99);
      bench::Harness::process().record(prefix + "/p50", p50);
      bench::Harness::process().record(prefix + "/p99", p99);
      round_p50.push_back(p50);
      round_p99.push_back(p99);
      if (round_seconds > 0.0) {
        queries_per_second = std::max(
            queries_per_second, static_cast<double>(queries_per_round) / round_seconds);
      }
    }

    const double p50 = percentile(round_p50, 0.50);
    const double p99 = percentile(round_p99, 0.50);
    const std::uint32_t r = config.instances(g);
    table.row({spec.name, class_name(spec.paper_mixing_class),
               std::to_string(g.num_nodes()), std::to_string(r),
               util::fmt_fixed(queries_per_second, 0), util::fmt_fixed(1e3 * p50, 3),
               util::fmt_fixed(1e3 * p99, 3)});
    csv_rows.push_back({spec.name, class_name(spec.paper_mixing_class),
                        std::to_string(g.num_nodes()),
                        std::to_string(g.num_edges()), std::to_string(r),
                        std::to_string(queries_per_round),
                        util::fmt_fixed(queries_per_second, 1),
                        util::fmt_fixed(1e3 * p50, 4), util::fmt_fixed(1e3 * p99, 4)});
  }

  table.print(std::cout);
  const std::string out =
      cli.get("out", util::bench_results_dir().value_or(".") + "/serve_admission.csv");
  util::CsvWriter csv{out};
  csv.row({"dataset", "class", "n", "m", "r", "queries_per_round", "qps", "p50_ms",
           "p99_ms"});
  for (const auto& row : csv_rows) csv.row(row);
  return 0;
}
