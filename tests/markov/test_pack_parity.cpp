// Pack-kind parity: a graph measured in memory, from its raw pack and from
// its compressed pack gives BIT-IDENTICAL results —
//
//  * sampled TVD trajectories on every Table-1 generator config, in the
//    generator order and in the pack-time RCM order, at 1 and 4 threads;
//  * the Lanczos spectrum (µ, λ₂, λ_min and the apply count);
//  * across a kill at block.complete and a checkpoint resume, whichever
//    kind of input wrote the snapshot and whichever resumes it.
//
// A compressed pack is decoded into an ordinary CSR when it is opened, so
// all three inputs are swept by the same engines over the same ids. The
// ShardParity / ShardResumeTest names are the ones these checks had when
// packs were swept shard by shard; the claims they name still hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/walk_operator.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/parallel.hpp"

namespace socmix::markov {
namespace {

namespace fs = std::filesystem;

constexpr graph::NodeId kNodes = 400;
constexpr std::size_t kSteps = 30;
constexpr std::size_t kThreadCounts[] = {1, 4};

std::vector<graph::NodeId> spread_sources(const graph::Graph& g, std::size_t count) {
  std::vector<graph::NodeId> sources;
  const graph::NodeId stride =
      std::max<graph::NodeId>(1, g.num_nodes() / static_cast<graph::NodeId>(count));
  for (graph::NodeId v = 0; sources.size() < count && v < g.num_nodes(); v += stride) {
    sources.push_back(v);
  }
  return sources;
}

/// `g` written as a raw and as a compressed pack under the test temp dir
/// and loaded back; the files are removed with the object.
class Packs {
 public:
  Packs(const graph::Graph& g, const std::string& name) {
    for (const bool compress : {false, true}) {
      const std::string file = name + (compress ? "_adjc" : "_raw") + ".smxg";
      const std::string path = (fs::path{testing::TempDir()} / file).string();
      graph::sharded::WriteOptions options;
      options.compress = compress;
      graph::sharded::write_smxg_file(path, g, options);
      (compress ? compressed_ : raw_) = graph::sharded::MappedGraph{path};
      fs::remove(path);
    }
  }

  [[nodiscard]] const graph::Graph& raw() const { return raw_.view(); }
  [[nodiscard]] const graph::Graph& compressed() const { return compressed_.view(); }

 private:
  graph::sharded::MappedGraph raw_;
  graph::sharded::MappedGraph compressed_;
};

void expect_bitwise_equal(const SampledMixing& a, const SampledMixing& b,
                          const std::string& label) {
  ASSERT_EQ(a.num_sources(), b.num_sources()) << label;
  for (std::size_t s = 0; s < a.num_sources(); ++s) {
    for (std::size_t t = 1; t <= a.max_steps(); ++t) {
      ASSERT_EQ(a.tvd(s, t), b.tvd(s, t)) << label << " s=" << s << " t=" << t;
    }
  }
}

enum class PackKind { kRaw, kCompressed };

/// Sampled trajectories of every Table-1 config, in memory and from each
/// pack kind in `kinds`, compared bit for bit at 1 and 4 threads.
void expect_sampled_parity_on_every_table1_config(bool rcm,
                                                  std::initializer_list<PackKind> kinds) {
  std::size_t index = 0;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph generated = gen::build_dataset(spec, kNodes, 11);
    const graph::Graph g =
        rcm ? graph::apply_permutation(generated, graph::rcm_permutation(generated))
            : generated;
    const Packs packs{g, std::string{rcm ? "parity_rcm_" : "parity_"} +
                             std::to_string(index++)};
    const auto sources = spread_sources(g, 8);
    for (const std::size_t threads : kThreadCounts) {
      util::set_thread_count(threads);
      const SampledMixing dense = measure_sampled_mixing(g, sources, kSteps);
      const std::string label = spec.name + (rcm ? " rcm" : " generator") +
                                " threads=" + std::to_string(threads);
      for (const PackKind kind : kinds) {
        const bool compressed = kind == PackKind::kCompressed;
        expect_bitwise_equal(
            dense,
            measure_sampled_mixing(compressed ? packs.compressed() : packs.raw(),
                                   sources, kSteps),
            label + (compressed ? " compressed pack" : " raw pack"));
      }
      util::set_thread_count(0);
    }
  }
}

TEST(ShardParity, BitIdenticalToDenseOnEveryTable1Config) {
  expect_sampled_parity_on_every_table1_config(/*rcm=*/false, {PackKind::kCompressed});
}

TEST(ShardParity, PackedContainerMatchesInMemoryBitwise) {
  expect_sampled_parity_on_every_table1_config(/*rcm=*/false, {PackKind::kRaw});
}

TEST(ShardParity, ComposesWithReorder) {
  expect_sampled_parity_on_every_table1_config(
      /*rcm=*/true, {PackKind::kRaw, PackKind::kCompressed});
}

TEST(PackParity, SpectrumBitIdenticalAcrossPackKinds) {
  const graph::Graph generated =
      gen::build_dataset(*gen::find_dataset("Physics 1"), 500, 29);
  for (const bool rcm : {false, true}) {
    const graph::Graph g =
        rcm ? graph::apply_permutation(generated, graph::rcm_permutation(generated))
            : generated;
    const Packs packs{g, rcm ? "spectrum_rcm" : "spectrum"};
    for (const std::size_t threads : kThreadCounts) {
      util::set_thread_count(threads);
      const linalg::LanczosOptions options;
      const auto dense = linalg::slem_spectrum(linalg::WalkOperator{g}, options);
      for (const graph::Graph* pack : {&packs.raw(), &packs.compressed()}) {
        const auto got = linalg::slem_spectrum(linalg::WalkOperator{*pack}, options);
        const std::string label =
            std::string{pack == &packs.raw() ? "raw" : "compressed"} +
            (rcm ? " rcm" : "") + " threads=" + std::to_string(threads);
        EXPECT_EQ(got.slem, dense.slem) << label;
        EXPECT_EQ(got.lambda2, dense.lambda2) << label;
        EXPECT_EQ(got.lambda_min, dense.lambda_min) << label;
        EXPECT_EQ(got.iterations, dense.iterations) << label;
      }
      util::set_thread_count(0);
    }
  }
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
           ("pack_resume_" +
            std::string{::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(dir_);
  }
  void TearDown() override {
    resilience::disarm_faults();
    util::set_thread_count(0);
    fs::remove_all(dir_);
  }

  /// kSteps sampled options, checkpointing every completed block.
  [[nodiscard]] SampledMixingOptions options() const {
    SampledMixingOptions opts;
    opts.max_steps = kSteps;
    opts.checkpoint.dir = dir_.string();
    opts.checkpoint.interval = 1;
    return opts;
  }

  void expect_resume(const graph::Graph& killed, const graph::Graph& resumed,
                     const std::vector<graph::NodeId>& sources,
                     const SampledMixing& baseline, const std::string& label);

  fs::path dir_;
};

/// Kills a run on `killed` after its first block, resumes it on `resumed`,
/// and checks the resume replayed the snapshot onto `baseline`'s bits.
void ShardResumeTest::expect_resume(const graph::Graph& killed, const graph::Graph& resumed,
                                    const std::vector<graph::NodeId>& sources,
                                    const SampledMixing& baseline,
                                    const std::string& label) {
  fs::remove_all(dir_);
  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(killed, sources, options()),
               resilience::InjectedFault)
      << label;
  resilience::disarm_faults();
  const std::uint64_t skipped = counter_value("resilience.resume_blocks_skipped");
  expect_bitwise_equal(baseline, measure_sampled_mixing(resumed, sources, options()),
                       label);
  EXPECT_GT(counter_value("resilience.resume_blocks_skipped"), skipped) << label;
}

TEST_F(ShardResumeTest, KilledShardedRunResumesBitIdenticalToDense) {
  // Killed and resumed on the same kind of input, each kind lands on the
  // uninterrupted in-memory bits.
  const graph::Graph g = gen::build_dataset(*gen::find_dataset("Physics 1"), kNodes, 13);
  const Packs packs{g, "resume_same"};
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);
  const SampledMixing baseline = measure_sampled_mixing(g, sources, kSteps);
  const std::pair<const char*, const graph::Graph*> inputs[] = {
      {"in memory", &g},
      {"raw pack", &packs.raw()},
      {"compressed pack", &packs.compressed()}};
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    for (const auto& [name, input] : inputs) {
      expect_resume(*input, *input, sources, baseline,
                    std::string{name} + " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(ShardResumeTest, DenseGeometryKeepsPreShardSnapshotsCompatible) {
  // Killed on one kind of input and resumed on another: the fingerprint
  // and the context word are the same for all three, so a snapshot written
  // in memory restores on a pack and the other way round.
  const graph::Graph g = gen::build_dataset(*gen::find_dataset("Physics 1"), kNodes, 13);
  const Packs packs{g, "resume_cross"};
  const auto sources = spread_sources(g, 3 * BatchedEvolver::kDefaultBlock);
  const SampledMixing baseline = measure_sampled_mixing(g, sources, kSteps);
  const std::pair<const char*, const graph::Graph*> inputs[] = {
      {"in memory", &g},
      {"raw pack", &packs.raw()},
      {"compressed pack", &packs.compressed()}};
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    for (const auto& [killed_name, killed] : inputs) {
      for (const auto& [resumed_name, resumed] : inputs) {
        if (killed == resumed) continue;
        expect_resume(*killed, *resumed, sources, baseline,
                      std::string{killed_name} + " killed, " + resumed_name +
                          " resumed, threads=" + std::to_string(threads));
      }
    }
  }
}

}  // namespace
}  // namespace socmix::markov
