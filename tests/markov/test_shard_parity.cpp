// The contract of the sharded out-of-core sweep of a compressed pack
// (`socmix measure --pack <compressed> --sharded N`): trajectories
// BatchedEvolver computes shard-at-a-time over decoded ADJC windows are
// BIT-IDENTICAL to the one-shard sweep of the same graph in memory —
//
//  * on every Table-1 generator config, for shard counts {1, 3, 16}, at
//    serial and contended thread counts;
//  * with the pipeline's windows staged on its worker thread and inline on
//    the compute thread (hardware_threads 1);
//  * composed with the pack-time rcm ordering;
//  * across a fault-injected kill and checkpoint resume, including a kill
//    at a shard boundary mid-prefetch;
//  * after a window fault mid-sweep has left the in-place lane state half
//    advanced, reseeding the same evolver reproduces the clean trajectory;
//  * and a snapshot written under a foreign shard geometry is classified
//    stale and recomputed, never replayed.
//
// In-memory graphs and raw packs sweep as one shard whatever --sharded
// says: resolve_engine hands the engines no plan and no mapping.
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
constexpr std::uint32_t kShardCounts[] = {1, 3, 16};
/// Hardware threads handed to the pipeline: 1 stages inline on the
/// compute thread, 2 starts the staging worker.
constexpr unsigned kStagings[] = {1, 2};

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

/// A `.smxg` pack of `g` (compressed unless `compress` is false) in the
/// test temp dir, mapped back; the file is removed with the object.
class Pack {
 public:
  Pack(const graph::Graph& g, const std::string& name, bool compress = true)
      : path_{(fs::path{testing::TempDir()} / (name + ".smxg")).string()} {
    graph::sharded::WriteOptions options;
    options.compress = compress;
    graph::sharded::write_smxg_file(path_, g, graph::ShardPlan::balanced(g.offsets(), 4),
                                    options);
    mapped_ = graph::sharded::MappedGraph{path_};
  }
  ~Pack() { std::remove(path_.c_str()); }
  Pack(const Pack&) = delete;
  Pack& operator=(const Pack&) = delete;

  [[nodiscard]] const graph::sharded::MappedGraph& mapped() const { return mapped_; }
  [[nodiscard]] const graph::Graph& view() const { return mapped_.view(); }

 private:
  std::string path_;
  graph::sharded::MappedGraph mapped_;
};

SampledMixing run(const graph::Graph& g, std::span<const graph::NodeId> sources,
                  const SampledMixingOptions& options) {
  return measure_sampled_mixing(g, sources, options);
}

SampledMixingOptions base_options() {
  SampledMixingOptions options;
  options.max_steps = kSteps;
  return options;
}

/// base_options() over `pack` at `count` shards (0: --sharded off).
SampledMixingOptions pack_options(const Pack& pack, std::uint32_t count) {
  SampledMixingOptions options = base_options();
  options.sharded = count == 0
                        ? graph::ShardPolicy{.mode = graph::ShardPolicy::Mode::kOff}
                        : shards(count);
  options.mapped = &pack.mapped();
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

/// kSteps TVD rows of `evolver`, reseeded at `sources`.
std::vector<double> trajectory(BatchedEvolver& evolver, std::span<const double> pi,
                               std::span<const graph::NodeId> sources) {
  evolver.seed_point_masses(sources);
  std::vector<double> tvd(kSteps * sources.size());
  for (std::size_t t = 0; t < kSteps; ++t) {
    evolver.step_with_tvd(pi, {tvd.data() + t * sources.size(), sources.size()});
  }
  return tvd;
}

TEST(ShardParity, BitIdenticalToDenseOnEveryTable1Config) {
  std::size_t dataset_index = 0;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    const SampledMixing dense = run(g, sources, base_options());
    const Pack pack{g, "parity_" + std::to_string(dataset_index++)};
    for (const std::uint32_t count : kShardCounts) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        util::set_thread_count(threads);
        const SampledMixing sharded =
            run(pack.view(), sources, pack_options(pack, count));
        util::set_thread_count(0);
        expect_bitwise_equal(dense, sharded,
                             spec.name + " shards=" + std::to_string(count) +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ShardParity, ComposesWithReorder) {
  // The ordering `graph_pack --reorder rcm` stores composes with the
  // compressed sweep: a crawl-ordered graph relabeled in RCM order and
  // packed compressed sweeps bit-identically to its in-memory sweep.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 5);
  const graph::Graph crawl =
      graph::apply_permutation(g, graph::shuffle_permutation(g.num_nodes(), 5));
  const graph::Graph rcm = graph::apply_permutation(crawl, graph::rcm_permutation(crawl));
  const auto sources = spread_sources(rcm);
  const SampledMixing dense = run(rcm, sources, base_options());
  const Pack pack{rcm, "rcm_pack"};
  for (const std::uint32_t count : kShardCounts) {
    expect_bitwise_equal(dense, run(pack.view(), sources, pack_options(pack, count)),
                         "rcm adjc shards=" + std::to_string(count));
  }
}

TEST(ShardParity, PipelineMatrixBitIdenticalToDenseOnEveryTable1Config) {
  // The pipeline contract: window staging (the worker thread, or inline
  // on the compute thread) and adjacency representation (decoded ADJC vs
  // the in-memory CSR) never change a bit. Every Table-1 generator config,
  // shard counts {1, 3, 16}, both stagings — all bit-identical to the
  // in-memory engine.
  std::size_t dataset_index = 0;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    const std::vector<double> pi = stationary_distribution(g);
    BatchedEvolver dense{g};
    const std::vector<double> expected = trajectory(dense, pi, sources);
    const Pack pack{g, "pipe_" + std::to_string(dataset_index++)};
    for (const std::uint32_t count : kShardCounts) {
      for (const unsigned staging : kStagings) {
        BatchedEvolver sharded{pack.view(), 0.0, BatchedEvolver::kDefaultBlock,
                               {graph::ShardPlan::balanced(g.offsets(), count),
                                &pack.mapped()},
                               staging};
        ASSERT_EQ(expected, trajectory(sharded, pi, sources))
            << spec.name << " shards=" << count << " hardware_threads=" << staging;
      }
    }
  }
}

TEST(ShardParity, CompressedRejectsAMissingMapping) {
  // A headless graph without its mapped container is unusable.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 5);
  const Pack pack{g, "pipe_gate"};
  const auto sources = spread_sources(pack.view());

  SampledMixingOptions no_mapped = base_options();
  no_mapped.sharded = shards(4);
  EXPECT_THROW(measure_sampled_mixing(pack.view(), sources, no_mapped),
               std::invalid_argument);
}

TEST(ShardParity, PackedContainerMatchesInMemoryBitwise) {
  // A raw pack and an in-memory graph sweep their CSR as one shard,
  // whatever --sharded says: the engines get no plan and no mapping, and
  // the raw pack's trajectories equal the in-memory ones.
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 17);
  const auto sources = spread_sources(g);
  const Pack raw{g, "shard_parity_raw", /*compress=*/false};
  ASSERT_FALSE(raw.mapped().compressed());
  ASSERT_EQ(raw.view().num_nodes(), g.num_nodes());

  SampledMixingOptions options = base_options();
  options.sharded = shards(16);
  const SweepSharding in_memory = resolve_engine(g, options);
  EXPECT_EQ(in_memory.plan.num_shards(), 1u);
  EXPECT_EQ(in_memory.mapped, nullptr);
  options.mapped = &raw.mapped();
  const SweepSharding packed = resolve_engine(raw.view(), options);
  EXPECT_EQ(packed.plan.num_shards(), 1u);
  EXPECT_EQ(packed.mapped, nullptr);

  expect_bitwise_equal(run(g, sources, base_options()), run(raw.view(), sources, options),
                       "raw pack, --sharded 16");
}

TEST(ShardParity, EvolverStateAccessorsMatchDense) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 7);
  const std::vector<double> pi = stationary_distribution(g);
  const Pack pack{g, "accessors"};

  BatchedEvolver dense{g, 0.0, BatchedEvolver::kDefaultBlock};
  BatchedEvolver sharded{pack.view(), 0.0, BatchedEvolver::kDefaultBlock,
                         {graph::ShardPlan::balanced(g.offsets(), 8), &pack.mapped()}};
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

std::uint64_t counter_value(const std::string& name) {
  for (const auto& counter : obs::Registry::instance().snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

class ShardResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path{testing::TempDir()} /
           ("shard_resume_" +
            std::string{
                ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(dir_);
    g_ = gen::build_dataset(*gen::find_dataset("Physics 1"), kNodes, 13);
    sources_ = spread_sources(g_, 3 * BatchedEvolver::kDefaultBlock);
  }
  void TearDown() override {
    resilience::disarm_faults();
    util::set_thread_count(0);
    fs::remove_all(dir_);
  }

  /// pack_options(pack, count), checkpointing every completed block.
  [[nodiscard]] SampledMixingOptions options(const Pack& pack,
                                             std::uint32_t count) const {
    SampledMixingOptions opts = pack_options(pack, count);
    opts.checkpoint.dir = dir_.string();
    opts.checkpoint.interval = 1;
    return opts;
  }

  /// The uninterrupted in-memory trajectories every resume must land on.
  [[nodiscard]] SampledMixing dense() const { return run(g_, sources_, base_options()); }

  fs::path dir_;
  graph::Graph g_;
  std::vector<graph::NodeId> sources_;
};

TEST_F(ShardResumeTest, KilledShardedRunResumesBitIdenticalToDense) {
  const SampledMixing baseline = dense();
  const Pack pack{g_, "resume_killed"};
  for (const std::uint32_t count : kShardCounts) {
    fs::remove_all(dir_);
    resilience::arm_fault("block.complete:2:error");
    EXPECT_THROW(measure_sampled_mixing(pack.view(), sources_, options(pack, count)),
                 resilience::InjectedFault);
    resilience::disarm_faults();

    const SampledMixing resumed =
        measure_sampled_mixing(pack.view(), sources_, options(pack, count));
    expect_bitwise_equal(baseline, resumed,
                         "resumed compressed vs uninterrupted dense, shards=" +
                             std::to_string(count));
  }
}

TEST_F(ShardResumeTest, KilledMidPrefetchAcrossShardBoundaryResumesBitIdentical) {
  // Kill a compressed run at a shard boundary — the "shard.window" fault
  // site fires inside ShardPipeline::acquire, i.e. exactly where compute
  // crosses from one shard's window to the next while the worker thread
  // (on any multi-core host) is mid-stage on the window after it. The
  // pipeline (and its worker) must unwind cleanly, and the resumed run
  // must land on the dense run's exact bits.
  const SampledMixing baseline = dense();
  const Pack pack{g_, "resume_prefetch"};
  // One worker runs the 3 blocks in order, each kSteps sweeps of `count`
  // acquires: the fault lands mid-block 1, after block 0 checkpointed.
  util::set_thread_count(1);
  for (const std::uint32_t count : kShardCounts) {
    fs::remove_all(dir_);
    const std::size_t nth = kSteps * count * 3 / 2 + 1;
    resilience::arm_fault("shard.window:" + std::to_string(nth) + ":error");
    EXPECT_THROW(measure_sampled_mixing(pack.view(), sources_, options(pack, count)),
                 resilience::InjectedFault);
    resilience::disarm_faults();

    const std::uint64_t restored_before =
        counter_value("resilience.resume_blocks_skipped");
    const SampledMixing resumed =
        measure_sampled_mixing(pack.view(), sources_, options(pack, count));
    EXPECT_GT(counter_value("resilience.resume_blocks_skipped"), restored_before)
        << "shards=" << count;
    expect_bitwise_equal(baseline, resumed,
                         "resumed compressed prefetch vs uninterrupted dense, shards=" +
                             std::to_string(count));
  }
}

TEST_F(ShardResumeTest, ReseedAfterMidSweepFaultReproducesCleanTrajectory) {
  // The sweep overwrites the lane state in place, so a window fault between
  // shards leaves some rows advanced and the rest not. The header promises
  // only that the state is unspecified until reseeded: seed_point_masses on
  // the same evolver must then reproduce an untouched evolver's bits, for
  // a compressed sweep staged inline and on the pipeline's worker.
  const std::vector<double> pi = stationary_distribution(g_);
  const Pack pack{g_, "reseed_fault"};
  const auto sources = spread_sources(g_);

  for (const std::uint32_t count : kShardCounts) {
    for (const unsigned staging : kStagings) {
      const std::string label = "shards=" + std::to_string(count) +
                                " hardware_threads=" + std::to_string(staging);
      const SweepSharding sharding{graph::ShardPlan::balanced(g_.offsets(), count),
                                   &pack.mapped()};
      BatchedEvolver clean{pack.view(), 0.1, BatchedEvolver::kDefaultBlock, sharding,
                           staging};
      const std::vector<double> expected = trajectory(clean, pi, sources);

      BatchedEvolver evolver{pack.view(), 0.1, BatchedEvolver::kDefaultBlock, sharding,
                             staging};
      evolver.seed_point_masses(sources);
      std::vector<double> tvd(sources.size());
      const auto run_steps = [&] {
        for (std::size_t t = 0; t < kSteps; ++t) evolver.step_with_tvd(pi, tvd);
      };
      // The middle shard of the sixth sweep, after the shards before it
      // have been overwritten in place.
      const std::size_t nth = 5 * count + (count + 1) / 2;
      resilience::arm_fault("shard.window:" + std::to_string(nth) + ":error");
      EXPECT_THROW(run_steps(), resilience::InjectedFault) << label;
      resilience::disarm_faults();

      ASSERT_EQ(expected, trajectory(evolver, pi, sources)) << label;
      std::vector<double> dist_clean(g_.num_nodes()), dist_got(g_.num_nodes());
      clean.copy_distribution(sources.size() - 1, dist_clean);
      evolver.copy_distribution(sources.size() - 1, dist_got);
      EXPECT_EQ(dist_clean, dist_got) << label;
    }
  }
}

TEST_F(ShardResumeTest, ForeignShardGeometrySnapshotClassifiesStale) {
  const SampledMixing baseline = dense();
  const Pack pack{g_, "resume_foreign"};

  // Leave a partial snapshot written under a 3-shard geometry...
  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(pack.view(), sources_, options(pack, 3)),
               resilience::InjectedFault);
  resilience::disarm_faults();

  const std::uint64_t stale_before = counter_value("resilience.stale_discarded");
  // ...then resume under 16 shards: the context word differs, so the
  // snapshot classifies stale and everything recomputes — to the same
  // bits (geometry never changes results, only provenance).
  const SampledMixing resumed =
      measure_sampled_mixing(pack.view(), sources_, options(pack, 16));
  expect_bitwise_equal(baseline, resumed, "recomputed after stale geometry");
  EXPECT_GT(counter_value("resilience.stale_discarded"), stale_before);
}

TEST_F(ShardResumeTest, DenseGeometryKeepsPreShardSnapshotsCompatible) {
  // A sharded=off run and a sharded=1 run fold no shard word, so a
  // snapshot written by either replays into the other (and into runs of
  // builds that predate sharding entirely).
  const Pack pack{g_, "resume_dense_geometry"};
  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(pack.view(), sources_, options(pack, 0)),
               resilience::InjectedFault);
  resilience::disarm_faults();

  const std::uint64_t restored_before = counter_value("resilience.resume_blocks_skipped");
  const SampledMixing resumed =
      measure_sampled_mixing(pack.view(), sources_, options(pack, 1));
  expect_bitwise_equal(dense(), resumed, "sharded=1 resume of a sharded=off snapshot");
  EXPECT_GT(counter_value("resilience.resume_blocks_skipped"), restored_before);
}

}  // namespace
}  // namespace socmix::markov
