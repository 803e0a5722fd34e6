// WalkOperator over a shard plan: apply() is bitwise equal to the
// one-shard apply for any shard count (rows are independent; every row
// runs the identical kernel), so Lanczos on a sharded — or memory-mapped —
// graph produces the exact same spectrum.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
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

TEST(ShardedWalkOperator, ApplyBitwiseEqualToDenseForEveryShardCount) {
  const graph::Graph g = test_graph();
  const WalkOperator dense{g, 0.0};
  std::vector<double> x = random_unit(g.num_nodes(), 3);
  std::vector<double> y_dense(g.num_nodes());
  dense.apply(x, y_dense);

  for (const std::uint32_t shards : {1u, 4u, 16u, 61u}) {
    const WalkOperator sharded{
        g, graph::ShardPlan::balanced(g.offsets(), shards), 0.0};
    ASSERT_EQ(sharded.dim(), dense.dim());
    std::vector<double> y(g.num_nodes());
    sharded.apply(x, y);
    ASSERT_EQ(y, y_dense) << "shards=" << shards;
  }
}

TEST(ShardedWalkOperator, LazyApplyAndEigenvalueMapMatchDense) {
  const graph::Graph g = test_graph();
  const double laziness = 0.35;
  const WalkOperator dense{g, laziness};
  const WalkOperator sharded{g, graph::ShardPlan::balanced(g.offsets(), 8), laziness};
  std::vector<double> x = random_unit(g.num_nodes(), 7);
  std::vector<double> y_dense(g.num_nodes()), y(g.num_nodes());
  dense.apply(x, y_dense);
  sharded.apply(x, y);
  EXPECT_EQ(y, y_dense);
  EXPECT_EQ(sharded.map_eigenvalue(0.5), dense.map_eigenvalue(0.5));
  EXPECT_EQ(sharded.top_eigenvector(), dense.top_eigenvector());
}

TEST(ShardedWalkOperator, LanczosSpectrumIdenticalThroughMappedContainer) {
  const graph::Graph g = test_graph();
  const fs::path path = fs::path{testing::TempDir()} / "sharded_operator.smxg";
  graph::sharded::write_smxg_file(path.string(), g,
                                  graph::ShardPlan::balanced(g.offsets(), 4));
  const graph::sharded::MappedGraph mapped{path.string()};

  LanczosOptions options;
  const WalkOperator dense{g, 0.0};
  const auto dense_spectrum = slem_spectrum(dense, options);

  const WalkOperator sharded{mapped.view(), graph::ShardPlan::balanced(g.offsets(), 4),
                             0.0, &mapped};
  const auto sharded_spectrum = slem_spectrum(sharded, options);

  EXPECT_EQ(sharded_spectrum.slem, dense_spectrum.slem);
  EXPECT_EQ(sharded_spectrum.lambda2, dense_spectrum.lambda2);
  EXPECT_EQ(sharded_spectrum.lambda_min, dense_spectrum.lambda_min);
  EXPECT_EQ(sharded_spectrum.iterations, dense_spectrum.iterations);
  std::remove(path.string().c_str());
}

TEST(ShardedWalkOperator, LanczosSpectrumIdenticalThroughCompressedPrefetch) {
  // The spectral analogue of the sampled-mixing pipeline matrix: a
  // compressed (ADJC) container, decoded window by window (by the
  // pipeline's worker on a multi-core host), yields exactly the spectrum
  // the dense in-memory operator computes — staging and compression never
  // move a bit.
  const graph::Graph g = test_graph();
  const fs::path path = fs::path{testing::TempDir()} / "sharded_operator_adjc.smxg";
  graph::sharded::WriteOptions compress;
  compress.compress = true;
  graph::sharded::write_smxg_file(path.string(), g,
                                  graph::ShardPlan::balanced(g.offsets(), 4),
                                  compress);
  const graph::sharded::MappedGraph mapped{path.string()};
  ASSERT_TRUE(mapped.compressed());
  ASSERT_TRUE(mapped.view().headless());

  LanczosOptions options;
  const WalkOperator dense{g, 0.0};
  const auto dense_spectrum = slem_spectrum(dense, options);

  const WalkOperator sharded{mapped.view(),
                             graph::ShardPlan::balanced(mapped.view().offsets(), 4), 0.0,
                             &mapped};
  const auto sharded_spectrum = slem_spectrum(sharded, options);
  EXPECT_EQ(sharded_spectrum.slem, dense_spectrum.slem);
  EXPECT_EQ(sharded_spectrum.lambda2, dense_spectrum.lambda2);
  EXPECT_EQ(sharded_spectrum.lambda_min, dense_spectrum.lambda_min);
  EXPECT_EQ(sharded_spectrum.iterations, dense_spectrum.iterations);
  std::remove(path.string().c_str());
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
