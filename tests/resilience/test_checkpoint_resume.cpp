// The resilience contract, end to end: a measurement interrupted at any
// fault site and then re-run with the same checkpoint directory produces
// results bit-identical to an uninterrupted run — at any thread count —
// and a damaged checkpoint degrades to a clean start, never a wrong answer.
#include "resilience/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "sybil/sybil_limit.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace socmix::resilience {
namespace {

namespace fs = std::filesystem;

graph::Graph ring_with_chords(graph::NodeId n) {
  graph::EdgeList edges;
  for (graph::NodeId v = 0; v < n; ++v) {
    edges.add(v, (v + 1) % n);
    edges.add(v, (v * 7 + 3) % n);
  }
  return graph::Graph::from_edges(std::move(edges));
}

std::vector<graph::NodeId> first_sources(std::size_t count) {
  std::vector<graph::NodeId> sources(count);
  for (std::size_t i = 0; i < count; ++i) sources[i] = static_cast<graph::NodeId>(i);
  return sources;
}

std::vector<std::vector<double>> trajectories(const markov::SampledMixing& sampled) {
  std::vector<std::vector<double>> out(sampled.num_sources());
  for (std::size_t s = 0; s < sampled.num_sources(); ++s) {
    out[s].reserve(sampled.max_steps());
    for (std::size_t t = 1; t <= sampled.max_steps(); ++t) {
      out[s].push_back(sampled.tvd(s, t));
    }
  }
  return out;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path{testing::TempDir()} /
           ("resume_test_" +
            std::string{
                ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(dir_);
  }
  void TearDown() override {
    disarm_faults();
    util::set_thread_count(0);
    fs::remove_all(dir_);
  }

  [[nodiscard]] markov::SampledMixingOptions options(std::size_t interval = 1) const {
    markov::SampledMixingOptions opts;
    opts.max_steps = 25;
    opts.checkpoint.dir = dir_.string();
    opts.checkpoint.interval = interval;
    return opts;
  }

  fs::path dir_;
};

constexpr graph::NodeId kNodes = 160;
constexpr std::size_t kSources = 96;  // 3 blocks of BatchedEvolver::kDefaultBlock

TEST_F(CheckpointResumeTest, UnitRecordFinalizeRestoreRoundTrip) {
  CheckpointOptions opts{dir_.string(), "unit", 2};
  {
    BlockCheckpoint ckpt{opts, 99, 4};
    EXPECT_EQ(ckpt.restore(), 0u);
    ckpt.record(0, {1.0, 2.0});
    ckpt.record(2, {3.0});
    ckpt.finalize();
  }
  BlockCheckpoint reloaded{opts, 99, 4};
  EXPECT_EQ(reloaded.restore(), 2u);
  EXPECT_TRUE(reloaded.is_restored(0));
  EXPECT_FALSE(reloaded.is_restored(1));
  EXPECT_TRUE(reloaded.is_restored(2));
  EXPECT_EQ(reloaded.restored_payload(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(reloaded.restored_payload(2), (std::vector<double>{3.0}));
}

TEST_F(CheckpointResumeTest, UnitRejectsForeignFingerprintAndShape) {
  CheckpointOptions opts{dir_.string(), "unit", 1};
  {
    BlockCheckpoint ckpt{opts, 99, 4};
    ckpt.record(0, {1.0});
    ckpt.finalize();
  }
  BlockCheckpoint other_run{opts, 100, 4};
  EXPECT_EQ(other_run.restore(), 0u);  // stale: different fingerprint
  BlockCheckpoint other_shape{opts, 99, 5};
  EXPECT_EQ(other_shape.restore(), 0u);  // same run id, different block count
}

TEST_F(CheckpointResumeTest, UnitRejectsForeignContextAsStale) {
  // The context word records the execution environment (the shard
  // geometry, for the sampled sweep); a frame written under a different
  // context is internally valid but not replayable — it must be
  // classified stale and recomputed, never silently replayed.
  CheckpointOptions opts{dir_.string(), "unit", 1};
  constexpr std::uint64_t kWritten = 0;
  constexpr std::uint64_t kForeign = 2;
  {
    BlockCheckpoint ckpt{opts, 99, 4, kWritten};
    ckpt.record(0, {1.0});
    ckpt.finalize();
  }
  const auto stale_count = [] {
    for (const auto& counter : obs::Registry::instance().snapshot().counters) {
      if (counter.name == "resilience.stale_discarded") return counter.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t stale_before = stale_count();
  BlockCheckpoint other_context{opts, 99, 4, kForeign};
  EXPECT_EQ(other_context.restore(), 0u);
  EXPECT_EQ(other_context.context(), kForeign);
  EXPECT_EQ(stale_count(), stale_before + 1);
  // The matching context still round-trips.
  BlockCheckpoint same_context{opts, 99, 4, kWritten};
  EXPECT_EQ(same_context.restore(), 1u);
  EXPECT_EQ(same_context.restored_payload(0), (std::vector<double>{1.0}));
}

TEST_F(CheckpointResumeTest, InterruptedMeasurementResumesBitIdentical) {
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const auto baseline =
      trajectories(markov::measure_sampled_mixing(g, sources, /*max_steps=*/25));

  // Thread counts bracket the interesting schedules: serial and contended.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    fs::remove_all(dir_);
    util::set_thread_count(threads);

    arm_fault("block.complete:2:error");
    EXPECT_THROW(markov::measure_sampled_mixing(g, sources, options()), InjectedFault)
        << threads << " threads";
    disarm_faults();

    const auto resumed = markov::measure_sampled_mixing(g, sources, options());
    EXPECT_EQ(trajectories(resumed), baseline) << threads << " threads";
  }
}

/// The context words the retired --frontier knob folded: the bits of its
/// `auto` switch fraction 0.5, and 0 for `off`.
constexpr std::uint64_t kFrontierAutoWord = 0x3fe0000000000000;
constexpr std::uint64_t kFrontierOffWord = 0;
/// The word the retired --reorder knob folded at its `none` default.
constexpr std::uint64_t kReorderNoneWord = 0;

/// Writes a complete sampled-mixing snapshot the way builds with the
/// reorder, frontier and precision knobs did at --reorder none: the
/// context word hashes the ordering word, the frontier word and then the
/// precision word (0 for f64, 1 for mixed).
/// Every block holds a made-up trajectory no evolution produces, so a
/// replay is distinguishable from a recomputation.
std::vector<std::vector<double>> write_six_knob_snapshot(
    const graph::Graph& g, std::span<const graph::NodeId> sources,
    const markov::SampledMixingOptions& options, std::uint64_t frontier_word,
    std::uint64_t precision_word) {
  constexpr std::size_t kBlock = markov::BatchedEvolver::kDefaultBlock;
  const std::size_t blocks = (sources.size() + kBlock - 1) / kBlock;
  const std::uint64_t fingerprint =
      markov::sampled_mixing_fingerprint(g, sources, options.max_steps, options.laziness);
  const std::uint64_t context = util::hash_combine(
      util::hash_combine(kReorderNoneWord, frontier_word), precision_word);
  std::vector<std::vector<double>> recorded(sources.size());
  BlockCheckpoint previous{options.checkpoint, fingerprint, blocks, context};
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    std::vector<double> payload;
    for (std::size_t s = blk * kBlock; s < std::min(sources.size(), (blk + 1) * kBlock); ++s) {
      for (std::size_t t = 0; t < options.max_steps; ++t) {
        recorded[s].push_back(0.25 + 1e-3 * static_cast<double>(s) +
                              1e-6 * static_cast<double>(t));
      }
      payload.insert(payload.end(), recorded[s].begin(), recorded[s].end());
    }
    previous.record(blk, std::move(payload));
  }
  previous.finalize();
  return recorded;
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& counter : obs::Registry::instance().snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

TEST_F(CheckpointResumeTest, SampledSnapshotInThePreviousKnobLayoutRestores) {
  // The precision knob is gone, but the context word still folds the f64
  // word (0) where it did: an f64 snapshot of an earlier build restores
  // with every block skipped, never recomputed.
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const markov::SampledMixingOptions opts = options();
  const auto recorded =
      write_six_knob_snapshot(g, sources, opts, kFrontierAutoWord, /*precision_word=*/0);
  const std::uint64_t skipped_before = counter_value("resilience.resume_blocks_skipped");
  const auto resumed = markov::measure_sampled_mixing(g, sources, opts);
  EXPECT_EQ(trajectories(resumed), recorded);
  const std::size_t blocks =
      (sources.size() + markov::BatchedEvolver::kDefaultBlock - 1) /
      markov::BatchedEvolver::kDefaultBlock;
  EXPECT_EQ(counter_value("resilience.resume_blocks_skipped"), skipped_before + blocks);
}

TEST_F(CheckpointResumeTest, SampledSnapshotOfMixedPrecisionClassifiesStale) {
  // A snapshot written under the retired mixed precision (word 1) holds
  // quantized trajectories: it must classify stale and be recomputed in
  // f64, never replayed.
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const auto baseline =
      trajectories(markov::measure_sampled_mixing(g, sources, /*max_steps=*/25));
  const markov::SampledMixingOptions opts = options();
  (void)write_six_knob_snapshot(g, sources, opts, kFrontierAutoWord,
                                /*precision_word=*/1);
  const std::uint64_t stale_before = counter_value("resilience.stale_discarded");
  const auto resumed = markov::measure_sampled_mixing(g, sources, opts);
  EXPECT_EQ(trajectories(resumed), baseline);
  EXPECT_GT(counter_value("resilience.stale_discarded"), stale_before);
}

TEST_F(CheckpointResumeTest, SampledSnapshotUnderTheFrontierAutoWordRestores) {
  // The frontier knob is gone, but an in-memory run still folds the word
  // its `auto` default did: a default snapshot of an earlier build restores
  // with every block skipped.
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const markov::SampledMixingOptions opts = options();
  const auto recorded =
      write_six_knob_snapshot(g, sources, opts, kFrontierAutoWord, /*precision_word=*/0);
  const std::uint64_t skipped_before = counter_value("resilience.resume_blocks_skipped");
  const auto resumed = markov::measure_sampled_mixing(g, sources, opts);
  EXPECT_EQ(trajectories(resumed), recorded);
  EXPECT_EQ(counter_value("resilience.resume_blocks_skipped"),
            skipped_before + kSources / markov::BatchedEvolver::kDefaultBlock);
}

TEST_F(CheckpointResumeTest, SampledSnapshotUnderTheFrontierOffWordClassifiesStale) {
  // A snapshot an earlier build wrote under --frontier off (word 0) on an
  // in-memory graph no longer matches the context: it classifies stale
  // once and is recomputed — to the same bits, since the frontier never
  // changed a result — never replayed.
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const auto baseline =
      trajectories(markov::measure_sampled_mixing(g, sources, /*max_steps=*/25));
  const markov::SampledMixingOptions opts = options();
  (void)write_six_knob_snapshot(g, sources, opts, kFrontierOffWord, /*precision_word=*/0);
  const std::uint64_t stale_before = counter_value("resilience.stale_discarded");
  const auto resumed = markov::measure_sampled_mixing(g, sources, opts);
  EXPECT_EQ(trajectories(resumed), baseline);
  EXPECT_EQ(counter_value("resilience.stale_discarded"), stale_before + 1);
}

TEST_F(CheckpointResumeTest, SurvivesAKillAtEveryMeasurementFaultSite) {
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const auto baseline =
      trajectories(markov::measure_sampled_mixing(g, sources, /*max_steps=*/25));

  for (const std::string_view site :
       {"block.complete", "checkpoint.write", "checkpoint.rename"}) {
    fs::remove_all(dir_);
    arm_fault(std::string{site} + ":1:error");
    EXPECT_THROW(markov::measure_sampled_mixing(g, sources, options()), InjectedFault)
        << site;
    disarm_faults();
    const auto resumed = markov::measure_sampled_mixing(g, sources, options());
    EXPECT_EQ(trajectories(resumed), baseline) << site;
  }
}

TEST_F(CheckpointResumeTest, CorruptSnapshotDegradesToCleanStart) {
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);
  const auto baseline =
      trajectories(markov::measure_sampled_mixing(g, sources, /*max_steps=*/25));

  arm_fault("block.complete:3:error");
  EXPECT_THROW(markov::measure_sampled_mixing(g, sources, options()), InjectedFault);
  disarm_faults();

  // Trash both the snapshot and its fallback: resume must recompute all.
  for (const auto& entry : fs::directory_iterator{dir_}) {
    std::ofstream out{entry.path(), std::ios::binary | std::ios::trunc};
    out << "not a snapshot";
  }
  const auto resumed = markov::measure_sampled_mixing(g, sources, options());
  EXPECT_EQ(trajectories(resumed), baseline);
}

TEST_F(CheckpointResumeTest, CompletedRunShortCircuitsOnRerun) {
  const auto g = ring_with_chords(kNodes);
  const auto sources = first_sources(kSources);

  const auto first = markov::measure_sampled_mixing(g, sources, options());
  arm_fault("block.complete:1:error");  // any recompute would trip this
  const auto rerun = markov::measure_sampled_mixing(g, sources, options());
  disarm_faults();
  EXPECT_EQ(trajectories(first), trajectories(rerun));
}

TEST_F(CheckpointResumeTest, SybilSweepResumesBitIdentical) {
  const auto g = ring_with_chords(80);

  sybil::AdmissionSweepConfig config;
  config.route_lengths = {2, 3, 4, 5};
  config.suspect_sample = 20;
  config.verifier_sample = 2;
  const auto baseline = sybil::admission_sweep(g, config);

  config.checkpoint.dir = dir_.string();
  config.checkpoint.interval = 1;
  arm_fault("block.complete:3:error");
  EXPECT_THROW(sybil::admission_sweep(g, config), InjectedFault);
  disarm_faults();

  const auto resumed = sybil::admission_sweep(g, config);
  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(resumed[i].route_length, baseline[i].route_length);
    EXPECT_EQ(resumed[i].admitted_fraction, baseline[i].admitted_fraction) << i;
  }
}

}  // namespace
}  // namespace socmix::resilience
