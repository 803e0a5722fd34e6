// Pack-kind parity: a graph measured in memory, from its raw pack and from
// its compressed pack gives BIT-IDENTICAL results —
//
//  * sampled TVD trajectories on every Table-1 generator config, in the
//    generator order and in the pack-time RCM order, at 1 and 4 threads;
//  * the Lanczos spectrum (µ, λ₂, λ_min and the apply count).
//
// A compressed pack is decoded into an ordinary CSR when it is opened, so
// all three inputs are swept by the same engines over the same ids. The
// ShardParity names are the ones these checks had when packs were swept
// shard by shard; the claims they name still hold.
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
  // Pack files are named after the running test: ctest runs each test
  // case as its own process, concurrently, so shared names would race.
  const std::string test = testing::UnitTest::GetInstance()->current_test_info()->name();
  std::size_t index = 0;
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph generated = gen::build_dataset(spec, kNodes, 11);
    const graph::Graph g =
        rcm ? graph::apply_permutation(generated, graph::rcm_permutation(generated))
            : generated;
    const Packs packs{g, test + "_" + std::to_string(index++)};
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

}  // namespace
}  // namespace socmix::markov
