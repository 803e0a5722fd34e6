// Parity contract of the batched/parallel evolution engine: every result
// must be bit-identical to the plain scalar walk step written out below,
// for any block width (including the one-lane single-vector path), block
// composition and thread count.
#include "markov/batched_evolver.hpp"

#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "graph/components.hpp"
#include "linalg/vector_ops.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace socmix::markov {
namespace {

graph::Graph test_graph(graph::NodeId n = 300) {
  util::Rng rng{99};
  return graph::largest_component(gen::erdos_renyi_gnp(n, 0.03, rng)).graph;
}

/// The reference walk step, independent of the engine and its kernels:
/// next_j = (1-alpha) * sum_{i ~ j} x_i * (1/deg i) + alpha * x_j, the
/// neighbor sum taken in CSR order. This is the rounding sequence every
/// engine path promises to reproduce exactly.
std::vector<double> reference_step(const graph::Graph& g, const std::vector<double>& x,
                                   double laziness) {
  const graph::NodeId n = g.num_nodes();
  std::vector<double> scaled(n);
  for (graph::NodeId i = 0; i < n; ++i) {
    scaled[i] = x[i] * (1.0 / static_cast<double>(g.degree(i)));
  }
  std::vector<double> next(n);
  for (graph::NodeId j = 0; j < n; ++j) {
    double acc = 0.0;
    for (const graph::NodeId i : g.neighbors(j)) acc += scaled[i];
    next[j] = (1.0 - laziness) * acc + laziness * x[j];
  }
  return next;
}

/// e_source after `steps` reference steps.
std::vector<double> reference_walk(const graph::Graph& g, graph::NodeId source,
                                   std::size_t steps, double laziness) {
  std::vector<double> x(g.num_nodes(), 0.0);
  x[source] = 1.0;
  for (std::size_t t = 0; t < steps; ++t) x = reference_step(g, x, laziness);
  return x;
}

/// The scalar reference of measure_sampled_mixing: one source at a time,
/// linalg::total_variation per step.
std::vector<std::vector<double>> scalar_reference(const graph::Graph& g,
                                                  std::span<const graph::NodeId> sources,
                                                  std::size_t max_steps, double laziness) {
  const std::vector<double> pi = stationary_distribution(g);
  std::vector<std::vector<double>> trajectories;
  for (const graph::NodeId source : sources) {
    std::vector<double> x(g.num_nodes(), 0.0);
    x[source] = 1.0;
    std::vector<double> traj;
    for (std::size_t t = 0; t < max_steps; ++t) {
      x = reference_step(g, x, laziness);
      traj.push_back(linalg::total_variation(x, pi));
    }
    trajectories.push_back(std::move(traj));
  }
  return trajectories;
}

TEST(BatchedEvolver, RejectsBadArguments) {
  const auto g = test_graph(60);
  EXPECT_THROW(BatchedEvolver(g, -0.1), std::invalid_argument);
  EXPECT_THROW(BatchedEvolver(g, 1.0), std::invalid_argument);
  EXPECT_THROW(BatchedEvolver(g, 0.0, 0), std::invalid_argument);
  EXPECT_THROW(BatchedEvolver(g, 0.0, BatchedEvolver::kMaxBlock + 1), std::invalid_argument);
  BatchedEvolver ok{g, 0.0, 8};
  const std::vector<graph::NodeId> too_many(9, 0);
  EXPECT_THROW(ok.seed_point_masses(too_many), std::invalid_argument);
}

TEST(BatchedEvolver, LanesMatchScalarEvolutionBitForBit) {
  const auto g = test_graph();
  const std::vector<graph::NodeId> sources{0, 3, 7, 11, 2, 19, 23, 5};
  for (const double laziness : {0.0, 0.5}) {
    // Scalar: evolve each source independently.
    std::vector<std::vector<double>> expected;
    for (const auto s : sources) expected.push_back(reference_walk(g, s, 1, laziness));

    BatchedEvolver batched{g, laziness, 8};
    batched.seed_point_masses(sources);
    batched.step();
    std::vector<double> lane(batched.dim());
    for (std::size_t b = 0; b < sources.size(); ++b) {
      batched.copy_distribution(b, lane);
      for (std::size_t v = 0; v < lane.size(); ++v) {
        ASSERT_EQ(lane[v], expected[b][v]) << "laziness=" << laziness << " lane=" << b;
      }
      // The one-lane engine (single-vector SpMV kernel, row-parallel)
      // lands on the same bits as a lane of the wide block.
      ASSERT_EQ(walk_distribution(g, sources[b], 1, laziness), expected[b])
          << "laziness=" << laziness << " single-vector source=" << sources[b];
    }
  }
}

TEST(BatchedEvolver, RemainderBlockMatchesScalar) {
  const auto g = test_graph();
  const std::vector<graph::NodeId> sources{4, 9, 1};  // 3 lanes in a block of 8
  BatchedEvolver batched{g, 0.0, 8};
  batched.seed_point_masses(sources);
  std::vector<double> lane(batched.dim());
  for (std::size_t steps = 1; steps <= 5; ++steps) {
    batched.step();
    for (std::size_t b = 0; b < sources.size(); ++b) {
      const auto dist = reference_walk(g, sources[b], steps, 0.0);
      batched.copy_distribution(b, lane);
      for (std::size_t v = 0; v < lane.size(); ++v) {
        ASSERT_EQ(lane[v], dist[v]) << "steps=" << steps << " lane=" << b;
      }
    }
  }
}

TEST(BatchedEvolver, FusedTvdMatchesTotalVariationBitForBit) {
  const auto g = test_graph();
  const auto pi = stationary_distribution(g);
  const std::vector<graph::NodeId> sources{8, 0, 14, 3, 22, 17, 6, 10};
  for (const double laziness : {0.0, 0.5}) {
    BatchedEvolver batched{g, laziness, 8};
    batched.seed_point_masses(sources);
    std::array<double, 8> tvd{};
    std::vector<double> lane(batched.dim());
    for (std::size_t t = 0; t < 10; ++t) {
      batched.step_with_tvd(pi, tvd);
      for (std::size_t b = 0; b < sources.size(); ++b) {
        batched.copy_distribution(b, lane);
        ASSERT_EQ(tvd[b], linalg::total_variation(lane, pi))
            << "laziness=" << laziness << " t=" << t << " lane=" << b;
      }
    }
    // The one-lane path defers its TVD to the standalone reduction: the
    // same bits as the reference trajectory.
    const std::vector<graph::NodeId> first{sources[0]};
    ASSERT_EQ(tvd_trajectory(g, sources[0], 10, pi, laziness),
              scalar_reference(g, first, 10, laziness)[0])
        << "laziness=" << laziness;
  }
}

TEST(BatchedEvolver, LanesConserveProbabilityMass) {
  const auto g = test_graph();
  const std::vector<graph::NodeId> sources{1, 2, 3, 4, 5};
  BatchedEvolver batched{g, 0.3, 8};
  batched.seed_point_masses(sources);
  for (int t = 0; t < 20; ++t) batched.step();
  std::vector<double> lane(batched.dim());
  for (std::size_t b = 0; b < sources.size(); ++b) {
    batched.copy_distribution(b, lane);
    EXPECT_NEAR(std::accumulate(lane.begin(), lane.end(), 0.0), 1.0, 1e-12);
  }
}

// ----------------------------------------------- measure_sampled_mixing --

TEST(MeasureSampledMixingParallel, BitIdenticalToScalarAcrossThreadCounts) {
  const auto g = test_graph();
  util::Rng rng{5};
  const auto sources = pick_sources(g, 21, rng);  // odd count: remainder block
  constexpr std::size_t kSteps = 30;

  for (const double laziness : {0.0, 0.5}) {
    const auto expected = scalar_reference(g, sources, kSteps, laziness);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::set_thread_count(threads);
      const auto sampled = measure_sampled_mixing(g, sources, kSteps, laziness);
      ASSERT_EQ(sampled.num_sources(), sources.size());
      ASSERT_EQ(sampled.max_steps(), kSteps);
      for (std::size_t s = 0; s < sources.size(); ++s) {
        for (std::size_t t = 1; t <= kSteps; ++t) {
          ASSERT_EQ(sampled.tvd(s, t), expected[s][t - 1])
              << "threads=" << threads << " laziness=" << laziness << " s=" << s
              << " t=" << t;
        }
      }
    }
    util::set_thread_count(0);
  }
}

TEST(MeasureSampledMixingParallel, HandlesFewerSourcesThanOneBlock) {
  const auto g = test_graph(80);
  const std::vector<graph::NodeId> sources{2, 6};
  const auto expected = scalar_reference(g, sources, 12, 0.0);
  const auto sampled = measure_sampled_mixing(g, sources, 12, 0.0);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t t = 1; t <= 12; ++t) {
      ASSERT_EQ(sampled.tvd(s, t), expected[s][t - 1]);
    }
  }
}

}  // namespace
}  // namespace socmix::markov
