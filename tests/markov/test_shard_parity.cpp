// The contract of the sharded out-of-core sweep (--sharded): trajectories
// BatchedEvolver computes shard-at-a-time are BIT-IDENTICAL to its
// one-shard dense sweep —
//
//  * on every Table-1 generator config, for shard counts {1, 4, 16}, at
//    serial and contended thread counts;
//  * composed with the pack-time rcm ordering, raw or compressed;
//  * through a packed .smxg container mapped back as a borrowed graph,
//    raw or compressed (ADJC), staged by the pipeline's worker thread;
//  * across a fault-injected kill and checkpoint resume under sharding,
//    including a kill at a shard boundary mid-prefetch;
//  * and a snapshot written under a foreign shard geometry is classified
//    stale and recomputed, never replayed.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/parallel.hpp"

namespace socmix::markov {
namespace {

namespace fs = std::filesystem;

constexpr graph::NodeId kNodes = 400;
constexpr std::size_t kSources = 8;
constexpr std::size_t kSteps = 30;

std::vector<graph::NodeId> spread_sources(const graph::Graph& g,
                                          std::size_t count = kSources) {
  std::vector<graph::NodeId> sources;
  const graph::NodeId stride =
      std::max<graph::NodeId>(1, g.num_nodes() / static_cast<graph::NodeId>(count));
  for (graph::NodeId v = 0; sources.size() < count && v < g.num_nodes(); v += stride) {
    sources.push_back(v);
  }
  return sources;
}

graph::ShardPolicy shards(std::uint32_t count) {
  return graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kFixed, .count = count};
}

SampledMixing run(const graph::Graph& g, std::span<const graph::NodeId> sources,
                  const SampledMixingOptions& options) {
  return measure_sampled_mixing(g, sources, options);
}

SampledMixingOptions base_options() {
  SampledMixingOptions options;
  options.max_steps = kSteps;
  return options;
}

void expect_bitwise_equal(const SampledMixing& a, const SampledMixing& b,
                          const std::string& label) {
  ASSERT_EQ(a.num_sources(), b.num_sources()) << label;
  for (std::size_t s = 0; s < a.num_sources(); ++s) {
    for (std::size_t t = 1; t <= a.max_steps(); ++t) {
      ASSERT_EQ(a.tvd(s, t), b.tvd(s, t)) << label << " s=" << s << " t=" << t;
    }
  }
}

TEST(ShardParity, BitIdenticalToDenseOnEveryTable1Config) {
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    SampledMixingOptions dense_options = base_options();
    dense_options.sharded = graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff};
    const SampledMixing dense = run(g, sources, dense_options);
    for (const std::uint32_t count : {1u, 4u, 16u}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        util::set_thread_count(threads);
        SampledMixingOptions options = base_options();
        options.sharded = shards(count);
        const SampledMixing sharded = run(g, sources, options);
        util::set_thread_count(0);
        expect_bitwise_equal(dense, sharded,
                             spec.name + " shards=" + std::to_string(count) +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ShardParity, ComposesWithReorder) {
  // The ordering `graph_pack --reorder rcm` stores composes with every
  // sweep, compression included: a crawl-ordered graph relabeled in RCM
  // order and packed raw or compressed sweeps bit-identically to its dense
  // in-memory sweep.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 5);
  const graph::Graph crawl =
      graph::apply_permutation(g, graph::shuffle_permutation(g.num_nodes(), 5));
  const graph::Graph rcm = graph::apply_permutation(crawl, graph::rcm_permutation(crawl));
  const auto sources = spread_sources(rcm);
  SampledMixingOptions dense_options = base_options();
  dense_options.sharded = graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff};
  const SampledMixing dense = run(rcm, sources, dense_options);
  const fs::path path = fs::path{testing::TempDir()} / "rcm_pack.smxg";
  for (const bool compressed : {false, true}) {
    graph::sharded::WriteOptions write_options;
    write_options.compress = compressed;
    graph::sharded::write_smxg_file(path.string(), rcm,
                                    graph::ShardPlan::balanced(rcm.offsets(), 4),
                                    write_options);
    const graph::sharded::MappedGraph mapped{path.string()};
    SampledMixingOptions options = base_options();
    options.sharded = shards(4);
    options.mapped = &mapped;
    const SampledMixing sharded = run(mapped.view(), sources, options);
    expect_bitwise_equal(dense, sharded, compressed ? "rcm adjc" : "rcm raw");
  }
  std::remove(path.string().c_str());
}

TEST(ShardParity, PipelineMatrixBitIdenticalToDenseOnEveryTable1Config) {
  // The pipeline contract: window staging (the worker thread on a
  // multi-core host) and adjacency representation (raw ADJ4 vs decoded
  // ADJC) never change a bit. Every Table-1 generator config, both
  // containers, shard counts {1, 4, 16}, serial and contended threads —
  // all bit-identical to the dense in-memory engine.
  std::size_t dataset_index = 0;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const std::string tag = std::to_string(dataset_index++);
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    SampledMixingOptions dense_options = base_options();
    dense_options.sharded = graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff};
    const SampledMixing dense = run(g, sources, dense_options);

    const fs::path dir = fs::path{testing::TempDir()};
    const std::string raw_path = (dir / ("pipe_raw_" + tag + ".smxg")).string();
    const std::string adjc_path = (dir / ("pipe_adjc_" + tag + ".smxg")).string();
    const graph::ShardPlan pack_plan = graph::ShardPlan::balanced(g.offsets(), 4);
    graph::sharded::write_smxg_file(raw_path, g, pack_plan);
    graph::sharded::WriteOptions compress;
    compress.compress = true;
    graph::sharded::write_smxg_file(adjc_path, g, pack_plan, compress);
    const graph::sharded::MappedGraph raw{raw_path};
    const graph::sharded::MappedGraph adjc{adjc_path};
    ASSERT_FALSE(raw.compressed());
    ASSERT_TRUE(adjc.compressed());

    for (const bool compressed : {false, true}) {
      const graph::sharded::MappedGraph& mapped = compressed ? adjc : raw;
      for (const std::uint32_t count : {1u, 4u, 16u}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          util::set_thread_count(threads);
          SampledMixingOptions options = base_options();
          options.sharded = shards(count);
          options.mapped = &mapped;
          const SampledMixing sharded = run(mapped.view(), sources, options);
          util::set_thread_count(0);
          expect_bitwise_equal(dense, sharded,
                               spec.name + (compressed ? " adjc" : " raw") +
                                   " shards=" + std::to_string(count) +
                                   " threads=" + std::to_string(threads));
        }
      }
    }
    std::remove(raw_path.c_str());
    std::remove(adjc_path.c_str());
  }
}

TEST(ShardParity, CompressedRejectsAMissingMapping) {
  // A headless graph without its mapped container is unusable.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 5);
  const fs::path path = fs::path{testing::TempDir()} / "pipe_gate.smxg";
  graph::sharded::WriteOptions compress;
  compress.compress = true;
  graph::sharded::write_smxg_file(path.string(), g,
                                  graph::ShardPlan::balanced(g.offsets(), 4), compress);
  const graph::sharded::MappedGraph mapped{path.string()};
  const auto sources = spread_sources(mapped.view());

  SampledMixingOptions no_mapped = base_options();
  no_mapped.sharded = shards(4);
  EXPECT_THROW(measure_sampled_mixing(mapped.view(), sources, no_mapped),
               std::invalid_argument);
  std::remove(path.string().c_str());
}

TEST(ShardParity, PackedContainerMatchesInMemoryBitwise) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 17);
  const auto sources = spread_sources(g);
  const fs::path path = fs::path{testing::TempDir()} / "shard_parity.smxg";
  graph::sharded::write_smxg_file(path.string(), g,
                                  graph::ShardPlan::balanced(g.offsets(), 4));
  const graph::sharded::MappedGraph mapped{path.string()};
  ASSERT_EQ(mapped.view().num_nodes(), g.num_nodes());

  SampledMixingOptions dense_options = base_options();
  dense_options.sharded = graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff};
  const SampledMixing dense = run(g, sources, dense_options);

  SampledMixingOptions options = base_options();
  options.sharded = shards(4);
  options.mapped = &mapped;
  const SampledMixing sharded = run(mapped.view(), sources, options);
  expect_bitwise_equal(dense, sharded, "mapped container, 4 shards");
  std::remove(path.string().c_str());
}

TEST(ShardParity, EvolverStateAccessorsMatchDense) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 7);
  const std::vector<double> pi = stationary_distribution(g);

  BatchedEvolver dense{g, 0.0, BatchedEvolver::kDefaultBlock};
  BatchedEvolver sharded{g, 0.0, BatchedEvolver::kDefaultBlock,
                         {graph::ShardPlan::balanced(g.offsets(), 8)}};
  const graph::NodeId seed[] = {0, 3};
  dense.seed_point_masses(seed);
  sharded.seed_point_masses(seed);
  EXPECT_EQ(dense.plan().num_shards(), 1u);
  EXPECT_EQ(sharded.plan().num_shards(), 8u);
  EXPECT_EQ(sharded.dim(), dense.dim());
  EXPECT_EQ(sharded.active(), dense.active());

  std::vector<double> tvd_dense(2), tvd_sharded(2);
  for (std::size_t t = 0; t < kSteps; ++t) {
    dense.step_with_tvd(pi, tvd_dense);
    sharded.step_with_tvd(pi, tvd_sharded);
    ASSERT_EQ(tvd_dense, tvd_sharded) << "t=" << t;
  }

  std::vector<double> dist_dense(g.num_nodes()), dist_sharded(g.num_nodes());
  dense.copy_distribution(1, dist_dense);
  sharded.copy_distribution(1, dist_sharded);
  EXPECT_EQ(dist_dense, dist_sharded);
}

class ShardResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path{testing::TempDir()} /
           ("shard_resume_" +
            std::string{
                ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(dir_);
  }
  void TearDown() override {
    resilience::disarm_faults();
    fs::remove_all(dir_);
  }

  [[nodiscard]] SampledMixingOptions options(std::uint32_t shard_count) const {
    SampledMixingOptions opts = base_options();
    if (shard_count == 0) {
      opts.sharded = graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff};
    } else {
      opts.sharded = shards(shard_count);
    }
    opts.checkpoint.dir = dir_.string();
    opts.checkpoint.interval = 1;
    return opts;
  }

  fs::path dir_;
};

TEST_F(ShardResumeTest, KilledShardedRunResumesBitIdenticalToDense) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);
  SampledMixingOptions dense_options = base_options();
  dense_options.sharded = graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff};
  const SampledMixing dense = run(g, sources, dense_options);

  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(g, sources, options(4)),
               resilience::InjectedFault);
  resilience::disarm_faults();

  const SampledMixing resumed = measure_sampled_mixing(g, sources, options(4));
  expect_bitwise_equal(dense, resumed, "resumed sharded vs uninterrupted dense");
}

TEST_F(ShardResumeTest, KilledMidPrefetchAcrossShardBoundaryResumesBitIdentical) {
  // Kill a compressed run at a shard boundary — the "shard.window" fault
  // site fires inside ShardPipeline::acquire, i.e. exactly where compute
  // crosses from one shard's window to the next while the worker thread
  // (on any multi-core host) is mid-stage on the window after it. The
  // pipeline (and its worker) must unwind cleanly, and the resumed run
  // must land on the dense run's exact bits.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const fs::path pack = fs::path{testing::TempDir()} / "resume_prefetch.smxg";
  graph::sharded::WriteOptions compress;
  compress.compress = true;
  graph::sharded::write_smxg_file(pack.string(), g,
                                  graph::ShardPlan::balanced(g.offsets(), 4), compress);
  const graph::sharded::MappedGraph mapped{pack.string()};
  const auto sources = spread_sources(mapped.view(), 3 * BatchedEvolver::kDefaultBlock);

  SampledMixingOptions dense_options = base_options();
  dense_options.sharded = graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff};
  const SampledMixing dense = run(g, sources, dense_options);

  const auto prefetch_options = [&] {
    SampledMixingOptions opts = options(4);
    opts.mapped = &mapped;
    return opts;
  };
  // 3 blocks x kSteps sweeps x 4 shards of acquire calls; the 150th lands
  // mid-run, past the first checkpointed blocks.
  resilience::arm_fault("shard.window:150:error");
  EXPECT_THROW(measure_sampled_mixing(mapped.view(), sources, prefetch_options()),
               resilience::InjectedFault);
  resilience::disarm_faults();

  const SampledMixing resumed =
      measure_sampled_mixing(mapped.view(), sources, prefetch_options());
  expect_bitwise_equal(dense, resumed,
                       "resumed compressed prefetch vs uninterrupted dense");
  std::remove(pack.string().c_str());
}

TEST_F(ShardResumeTest, ForeignShardGeometrySnapshotClassifiesStale) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);
  SampledMixingOptions dense_options = base_options();
  dense_options.sharded = graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff};
  const SampledMixing baseline = run(g, sources, dense_options);

  // Leave a partial snapshot written under a 4-shard geometry...
  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(g, sources, options(4)),
               resilience::InjectedFault);
  resilience::disarm_faults();

#if SOCMIX_OBS_ENABLED
  const auto stale_count = [] {
    for (const auto& counter : obs::Registry::instance().snapshot().counters) {
      if (counter.name == "resilience.stale_discarded") return counter.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t stale_before = stale_count();
#endif
  // ...then resume under 16 shards: the context word differs, so the
  // snapshot classifies stale and everything recomputes — to the same
  // bits (geometry never changes results, only provenance).
  const SampledMixing resumed = measure_sampled_mixing(g, sources, options(16));
  expect_bitwise_equal(baseline, resumed, "recomputed after stale geometry");
#if SOCMIX_OBS_ENABLED
  EXPECT_GT(stale_count(), stale_before);
#endif
}

TEST_F(ShardResumeTest, DenseGeometryKeepsPreShardSnapshotsCompatible) {
  // A sharded=off run and a sharded=1 run fold no shard word, so a
  // snapshot written by either replays into the other (and into runs of
  // builds that predate sharding entirely).
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);

  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(g, sources, options(0)),
               resilience::InjectedFault);
  resilience::disarm_faults();

#if SOCMIX_OBS_ENABLED
  const auto restored_count = [] {
    for (const auto& counter : obs::Registry::instance().snapshot().counters) {
      if (counter.name == "resilience.resume_blocks_skipped") return counter.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t restored_before = restored_count();
#endif
  const SampledMixing resumed = measure_sampled_mixing(g, sources, options(1));
  SampledMixingOptions dense_options = base_options();
  dense_options.sharded = graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff};
  expect_bitwise_equal(run(g, sources, dense_options), resumed,
                       "sharded=1 resume of a sharded=off snapshot");
#if SOCMIX_OBS_ENABLED
  EXPECT_GT(restored_count(), restored_before);
#endif
}

}  // namespace
}  // namespace socmix::markov
