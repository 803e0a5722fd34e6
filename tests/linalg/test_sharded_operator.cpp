// WalkOperator over a shard plan of a compressed pack: apply() is bitwise
// equal to the in-memory one-shard apply for any shard count and either
// window staging (rows are independent; every row runs the identical
// kernel over bit-identical decoded neighbors), so Lanczos on a compressed
// pack produces the exact same spectrum. A raw pack is swept like an
// in-memory CSR, as one shard.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/graph.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/walk_operator.hpp"
#include "util/rng.hpp"

namespace socmix::linalg {
namespace {

namespace fs = std::filesystem;

/// Hardware threads handed to the pipeline: 1 stages inline on the
/// compute thread, 2 starts the staging worker.
constexpr unsigned kStagings[] = {1, 2};

graph::Graph test_graph() {
  const auto spec = gen::find_dataset("Physics 1");
  return gen::build_dataset(*spec, 500, 29);
}

std::vector<double> random_unit(std::size_t n, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform() - 0.5;
  return x;
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

void expect_same_spectrum(const SpectrumResult& got, const SpectrumResult& want,
                          const std::string& label) {
  EXPECT_EQ(got.slem, want.slem) << label;
  EXPECT_EQ(got.lambda2, want.lambda2) << label;
  EXPECT_EQ(got.lambda_min, want.lambda_min) << label;
  EXPECT_EQ(got.iterations, want.iterations) << label;
}

TEST(ShardedWalkOperator, ApplyBitwiseEqualToDenseForEveryShardCount) {
  const graph::Graph g = test_graph();
  const WalkOperator dense{g, 0.0};
  std::vector<double> x = random_unit(g.num_nodes(), 3);
  std::vector<double> y_dense(g.num_nodes());
  dense.apply(x, y_dense);

  const Pack pack{g, "sharded_operator_apply"};
  for (const std::uint32_t shards : {1u, 3u, 16u, 61u}) {
    for (const unsigned staging : kStagings) {
      const WalkOperator sharded{pack.view(),
                                 graph::ShardPlan::balanced(g.offsets(), shards), 0.0,
                                 &pack.mapped(), staging};
      ASSERT_EQ(sharded.dim(), dense.dim());
      std::vector<double> y(g.num_nodes());
      // Twice: the second apply reuses the recycled window slots.
      for (int apply = 0; apply < 2; ++apply) {
        sharded.apply(x, y);
        ASSERT_EQ(y, y_dense) << "shards=" << shards << " hardware_threads=" << staging;
      }
    }
  }
}

TEST(ShardedWalkOperator, LazyApplyAndEigenvalueMapMatchDense) {
  const graph::Graph g = test_graph();
  const double laziness = 0.35;
  const Pack pack{g, "sharded_operator_lazy"};
  const WalkOperator dense{g, laziness};
  const WalkOperator sharded{pack.view(), graph::ShardPlan::balanced(g.offsets(), 8),
                             laziness, &pack.mapped()};
  std::vector<double> x = random_unit(g.num_nodes(), 7);
  std::vector<double> y_dense(g.num_nodes()), y(g.num_nodes());
  dense.apply(x, y_dense);
  sharded.apply(x, y);
  EXPECT_EQ(y, y_dense);
  EXPECT_EQ(sharded.map_eigenvalue(0.5), dense.map_eigenvalue(0.5));
  EXPECT_EQ(sharded.top_eigenvector(), dense.top_eigenvector());
}

TEST(ShardedWalkOperator, LanczosSpectrumIdenticalThroughMappedContainer) {
  // A raw pack's mapped CSR is swept like an in-memory one: one shard, and
  // the mapping is not used.
  const graph::Graph g = test_graph();
  const Pack raw{g, "sharded_operator_raw", /*compress=*/false};
  ASSERT_FALSE(raw.mapped().compressed());

  LanczosOptions options;
  const WalkOperator dense{g, 0.0};
  const WalkOperator mapped{raw.view(), graph::ShardPlan::single(g.num_nodes()), 0.0,
                            &raw.mapped()};
  expect_same_spectrum(slem_spectrum(mapped, options), slem_spectrum(dense, options),
                       "raw pack");
}

TEST(ShardedWalkOperator, LanczosSpectrumIdenticalThroughCompressedPrefetch) {
  // The spectral analogue of the sampled-mixing pipeline matrix: a
  // compressed (ADJC) container, decoded window by window (on the
  // pipeline's worker or inline), yields exactly the spectrum the dense
  // in-memory operator computes — staging and compression never move a
  // bit.
  const graph::Graph g = test_graph();
  const Pack pack{g, "sharded_operator_adjc"};
  ASSERT_TRUE(pack.mapped().compressed());
  ASSERT_TRUE(pack.view().headless());

  LanczosOptions options;
  const WalkOperator dense{g, 0.0};
  const auto dense_spectrum = slem_spectrum(dense, options);
  for (const std::uint32_t shards : {1u, 3u, 16u}) {
    for (const unsigned staging : kStagings) {
      const WalkOperator sharded{pack.view(),
                                 graph::ShardPlan::balanced(g.offsets(), shards), 0.0,
                                 &pack.mapped(), staging};
      expect_same_spectrum(slem_spectrum(sharded, options), dense_spectrum,
                           "shards=" + std::to_string(shards) +
                               " hardware_threads=" + std::to_string(staging));
    }
  }
}

TEST(ShardedWalkOperator, RejectsBadPlanAndIsolatedVertices) {
  const graph::Graph g = test_graph();
  EXPECT_THROW((WalkOperator{g, graph::ShardPlan{}, 0.0}), std::invalid_argument);
  EXPECT_THROW((WalkOperator{g, graph::ShardPlan::single(g.num_nodes()), 1.0}),
               std::invalid_argument);
  EXPECT_THROW((WalkOperator{g, graph::ShardPlan::single(g.num_nodes() + 1), 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace socmix::linalg
