// The contract of the frontier phase (--frontier): trajectories computed
// with the sparse sweeps are BIT-IDENTICAL to the dense path —
//
//  * on every Table-1 generator config, at serial and contended thread
//    counts, composed with the locality reordering (--reorder rcm);
//  * through the one-lane single-vector path (tvd_trajectory);
//  * across the sparse->dense switch, including a fault-injected kill and
//    checkpoint resume that straddles it;
//  * and a snapshot written under a different frontier mode is classified
//    stale and recomputed, never replayed.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/frontier.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/parallel.hpp"

namespace socmix::markov {
namespace {

namespace fs = std::filesystem;

// Small but non-trivial: ~400-node stand-ins keep all 15 configs cheap,
// and 30 steps comfortably crosses the auto switch point on each.
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

SampledMixing run(const graph::Graph& g, std::span<const graph::NodeId> sources,
                  graph::FrontierPolicy frontier,
                  graph::ReorderMode reorder = graph::ReorderMode::kNone) {
  SampledMixingOptions options;
  options.max_steps = kSteps;
  options.reorder = reorder;
  options.frontier = frontier;
  return measure_sampled_mixing(g, sources, options);
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

TEST(FrontierParity, BitIdenticalToDenseOnEveryTable1Config) {
  const graph::FrontierPolicy off = *graph::parse_frontier_policy("off");
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    for (const graph::ReorderMode reorder :
         {graph::ReorderMode::kNone, graph::ReorderMode::kRcm}) {
      const SampledMixing dense = run(g, sources, off, reorder);
      for (const char* frontier : {"auto", "0.1"}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          util::set_thread_count(threads);
          const SampledMixing sparse =
              run(g, sources, *graph::parse_frontier_policy(frontier), reorder);
          util::set_thread_count(0);
          expect_bitwise_equal(dense, sparse,
                               spec.name + " frontier=" + frontier +
                                   " reorder=" + std::string{graph::reorder_mode_name(reorder)} +
                                   " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(FrontierParity, ScalarTrajectoryBitIdenticalToDense) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 5);
  const std::vector<double> pi = stationary_distribution(g);
  for (const graph::NodeId source : {graph::NodeId{0}, graph::NodeId{123}}) {
    for (const double laziness : {0.0, 0.3}) {
      const auto dense = tvd_trajectory(g, source, kSteps, pi, laziness,
                                        *graph::parse_frontier_policy("off"));
      const auto sparse = tvd_trajectory(g, source, kSteps, pi, laziness,
                                         *graph::parse_frontier_policy("auto"));
      ASSERT_EQ(dense, sparse) << "source=" << source << " laziness=" << laziness;
    }
  }
}

TEST(FrontierParity, AutoSwitchesToDenseMidRunAndCountsRows) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 7);
  const std::vector<double> pi = stationary_distribution(g);
  const graph::NodeId n = g.num_nodes();

  BatchedEvolver evolver{g, 0.0, BatchedEvolver::kDefaultBlock,
                         *graph::parse_frontier_policy("auto")};
  const graph::NodeId seed[] = {0};
  evolver.seed_point_masses(seed);
  EXPECT_TRUE(evolver.in_sparse_phase());
  EXPECT_EQ(evolver.switch_step(), 0u);

  std::vector<double> tvd(1);
  for (std::size_t t = 0; t < kSteps; ++t) evolver.step_with_tvd(pi, tvd);

  // A 400-node stand-in saturates well within 30 steps: the engine must
  // have run sparse at least one step, switched exactly once, and swept
  // strictly fewer rows than the dense kSteps * n.
  EXPECT_FALSE(evolver.in_sparse_phase());
  EXPECT_GT(evolver.switch_step(), 1u);
  EXPECT_LE(evolver.switch_step(), kSteps);
  EXPECT_GT(evolver.rows_swept(), 0u);
  EXPECT_LT(evolver.rows_swept(), static_cast<std::uint64_t>(kSteps) * n);

  // Re-seeding re-enters the sparse phase and restarts the counters.
  evolver.seed_point_masses(seed);
  EXPECT_TRUE(evolver.in_sparse_phase());
  EXPECT_EQ(evolver.switch_step(), 0u);
  EXPECT_EQ(evolver.rows_swept(), 0u);
}

class FrontierResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path{testing::TempDir()} /
           ("frontier_resume_" +
            std::string{
                ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(dir_);
  }
  void TearDown() override {
    resilience::disarm_faults();
    fs::remove_all(dir_);
  }

  [[nodiscard]] SampledMixingOptions options(const char* frontier) const {
    SampledMixingOptions opts;
    opts.max_steps = kSteps;
    opts.frontier = *graph::parse_frontier_policy(frontier);
    opts.checkpoint.dir = dir_.string();
    opts.checkpoint.interval = 1;
    return opts;
  }

  fs::path dir_;
};

TEST_F(FrontierResumeTest, KilledSparseRunResumesBitIdenticalToDense) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  // 3 blocks of kDefaultBlock sources: the kill lands after block 2, so
  // the resumed run replays blocks 1-2 and recomputes block 3, each block
  // crossing its own sparse->dense switch.
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);
  const SampledMixing dense =
      run(g, sources, *graph::parse_frontier_policy("off"));

  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(g, sources, options("auto")),
               resilience::InjectedFault);
  resilience::disarm_faults();

  const SampledMixing resumed = measure_sampled_mixing(g, sources, options("auto"));
  expect_bitwise_equal(dense, resumed, "resumed frontier vs uninterrupted dense");
}

TEST_F(FrontierResumeTest, ForeignFrontierModeSnapshotClassifiesStale) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);
  const SampledMixing baseline =
      run(g, sources, *graph::parse_frontier_policy("off"));

  // Leave a partial snapshot written under frontier=off...
  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(g, sources, options("off")),
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
  // ...then resume under frontier=auto: the context differs, so the
  // snapshot is discarded as stale and everything recomputes — to the
  // same bits (the mode never changes results, only provenance).
  const SampledMixing resumed = measure_sampled_mixing(g, sources, options("auto"));
  expect_bitwise_equal(baseline, resumed, "recomputed after stale snapshot");
#if SOCMIX_OBS_ENABLED
  EXPECT_GT(stale_count(), stale_before);
#endif
}

}  // namespace
}  // namespace socmix::markov
