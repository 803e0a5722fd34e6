// The contract of the simd kernel layer (linalg/simd):
//
//  * the default f64 path is BIT-IDENTICAL across kernel tiers
//    (scalar / AVX2 / AVX-512) — on every Table-1 generator config,
//    at serial and contended thread counts, composed with --reorder rcm
//    and with the frontier phase on and off;
//  * the single-vector SpMV consumers (WalkOperator, WeightedWalkOperator,
//    a one-lane BatchedEvolver) are bitwise tier-invariant too;
//  * --precision mixed stays within the documented accuracy budget of the
//    f64 path (per-step |ΔTVD| < kMixedTvdBudget), reaches the same
//    headline ε=0.1 mixing-time verdicts, leaves the spectral phase
//    untouched, and is itself bitwise tier-invariant;
//  * a checkpoint written under a different precision classifies stale.
//
// Tiers unavailable on the build/host (e.g. AVX-512 on a plain CI runner)
// are skipped via the runtime tier_available probe.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "core/measurement.hpp"
#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/weights.hpp"
#include "graph/components.hpp"
#include "graph/frontier.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "linalg/simd/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/walk_operator.hpp"
#include "linalg/weighted_operator.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace socmix {
namespace {

namespace fs = std::filesystem;
namespace simd = linalg::simd;

constexpr graph::NodeId kNodes = 400;
constexpr std::size_t kSources = 8;
constexpr std::size_t kSteps = 30;

/// Forces a kernel tier for one scope; restores runtime dispatch on exit.
class TierGuard {
 public:
  explicit TierGuard(simd::Tier tier) : ok_(simd::set_tier(tier)) {}
  ~TierGuard() { simd::reset_tier(); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  bool ok_;
};

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

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

markov::SampledMixing run(const graph::Graph& g, std::span<const graph::NodeId> sources,
                          graph::FrontierPolicy frontier,
                          graph::ReorderMode reorder = graph::ReorderMode::kNone,
                          simd::Precision precision = simd::Precision::kFloat64) {
  markov::SampledMixingOptions options;
  options.max_steps = kSteps;
  options.reorder = reorder;
  options.frontier = frontier;
  options.precision = precision;
  return measure_sampled_mixing(g, sources, options);
}

void expect_bitwise_equal(const markov::SampledMixing& a, const markov::SampledMixing& b,
                          const std::string& label) {
  ASSERT_EQ(a.num_sources(), b.num_sources()) << label;
  for (std::size_t s = 0; s < a.num_sources(); ++s) {
    for (std::size_t t = 1; t <= a.max_steps(); ++t) {
      ASSERT_EQ(a.tvd(s, t), b.tvd(s, t)) << label << " s=" << s << " t=" << t;
    }
  }
}

// ------------------------------------------------------------ f64 parity --

TEST(SimdTierParity, SampledMixingBitIdenticalAcrossTiersOnEveryTable1Config) {
  const auto tiers = available_tiers();
  ASSERT_FALSE(tiers.empty());
  const graph::FrontierPolicy off = *graph::parse_frontier_policy("off");
  const graph::FrontierPolicy autof = *graph::parse_frontier_policy("auto");
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    for (const graph::ReorderMode reorder :
         {graph::ReorderMode::kNone, graph::ReorderMode::kRcm}) {
      for (const graph::FrontierPolicy frontier : {autof, off}) {
        // Reference: forced scalar tier, serial. Every other
        // (tier, threads) combination must reproduce it bit for bit.
        const markov::SampledMixing reference = [&] {
          const TierGuard guard{simd::Tier::kScalar};
          return run(g, sources, frontier, reorder);
        }();
        for (const simd::Tier tier : tiers) {
          for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            if (tier == simd::Tier::kScalar && threads == 1) continue;
            const TierGuard guard{tier};
            ASSERT_TRUE(guard.ok());
            util::set_thread_count(threads);
            const markov::SampledMixing got = run(g, sources, frontier, reorder);
            util::set_thread_count(0);
            expect_bitwise_equal(
                reference, got,
                spec.name + " tier=" + simd::tier_name(tier) +
                    " threads=" + std::to_string(threads) +
                    " reorder=" + std::string{graph::reorder_mode_name(reorder)} +
                    " frontier=" + (frontier.enabled() ? "auto" : "off"));
          }
        }
      }
    }
  }
}

TEST(SimdTierParity, WalkOperatorApplyBitIdenticalAcrossTiers) {
  util::Rng rng{31};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(300, 1200, rng)).graph;
  const linalg::WalkOperator op{g, 0.2};
  linalg::Vec x(op.dim());
  linalg::randomize_unit(x, rng);

  linalg::Vec reference(op.dim());
  {
    const TierGuard guard{simd::Tier::kScalar};
    op.apply(x, reference);
  }
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    linalg::Vec y(op.dim());
    op.apply(x, y);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(reference[i], y[i]) << "tier=" << simd::tier_name(tier) << " i=" << i;
    }
  }
}

TEST(SimdTierParity, WeightedOperatorApplyBitIdenticalAcrossTiers) {
  util::Rng rng{47};
  const auto base = graph::largest_component(gen::erdos_renyi_gnm(250, 900, rng)).graph;
  const auto g = gen::pareto_weights(base, 1.5, rng);
  const linalg::WeightedWalkOperator op{g, 0.1};
  linalg::Vec x(op.dim());
  linalg::randomize_unit(x, rng);

  linalg::Vec reference(op.dim());
  {
    const TierGuard guard{simd::Tier::kScalar};
    op.apply(x, reference);
  }
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    linalg::Vec y(op.dim());
    op.apply(x, y);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(reference[i], y[i]) << "tier=" << simd::tier_name(tier) << " i=" << i;
    }
  }
}

TEST(SimdTierParity, EvolverTrajectoryBitIdenticalAcrossTiers) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 5);
  const std::vector<double> pi = markov::stationary_distribution(g);

  const auto reference = [&] {
    const TierGuard guard{simd::Tier::kScalar};
    return markov::tvd_trajectory(g, 123, kSteps, pi, 0.3,
                                  *graph::parse_frontier_policy("auto"));
  }();
  for (const simd::Tier tier : available_tiers()) {
    const TierGuard guard{tier};
    const auto got = markov::tvd_trajectory(g, 123, kSteps, pi, 0.3,
                                            *graph::parse_frontier_policy("auto"));
    ASSERT_EQ(reference, got) << "tier=" << simd::tier_name(tier);
  }
}

// --------------------------------------------------------------- dispatch --

TEST(SimdDispatch, ScalarAlwaysAvailableAndNamesRoundTrip) {
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  for (const simd::Tier tier : available_tiers()) {
    const auto parsed = simd::parse_tier(simd::tier_name(tier));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, tier);
    ASSERT_TRUE(simd::set_tier(tier));
    EXPECT_EQ(simd::active_tier(), tier);
    simd::reset_tier();
  }
  EXPECT_FALSE(simd::parse_tier("sse9").has_value());
  // The active tier after reset is whatever the CPU probe picked — one of
  // the compiled tiers, and necessarily an available one.
  EXPECT_TRUE(simd::tier_available(simd::active_tier()));
}

TEST(SimdDispatch, SetTierRejectsUnavailableTier) {
  for (const simd::Tier tier : {simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(tier)) continue;
    const simd::Tier before = simd::active_tier();
    EXPECT_FALSE(simd::set_tier(tier));
    EXPECT_EQ(simd::active_tier(), before);
  }
}

TEST(SimdDispatch, PrecisionNamesRoundTrip) {
  EXPECT_EQ(simd::parse_precision("f64"), simd::Precision::kFloat64);
  EXPECT_EQ(simd::parse_precision("float64"), simd::Precision::kFloat64);
  EXPECT_EQ(simd::parse_precision("double"), simd::Precision::kFloat64);
  EXPECT_EQ(simd::parse_precision("mixed"), simd::Precision::kMixed);
  EXPECT_FALSE(simd::parse_precision("f16").has_value());
  EXPECT_NE(simd::precision_context_word(simd::Precision::kFloat64),
            simd::precision_context_word(simd::Precision::kMixed));
}

// -------------------------------------------------------- mixed precision --

TEST(MixedPrecision, TvdWithinBudgetAndSameVerdictOnEveryTable1Config) {
  const graph::FrontierPolicy autof = *graph::parse_frontier_policy("auto");
  for (const gen::DatasetSpec& spec : gen::table1_datasets()) {
    const graph::Graph g = gen::build_dataset(spec, kNodes, 11);
    const auto sources = spread_sources(g);
    const markov::SampledMixing exact = run(g, sources, autof);
    const markov::SampledMixing mixed =
        run(g, sources, autof, graph::ReorderMode::kNone, simd::Precision::kMixed);
    ASSERT_EQ(exact.num_sources(), mixed.num_sources());
    for (std::size_t s = 0; s < exact.num_sources(); ++s) {
      for (std::size_t t = 1; t <= exact.max_steps(); ++t) {
        ASSERT_LT(std::fabs(exact.tvd(s, t) - mixed.tvd(s, t)), simd::kMixedTvdBudget)
            << spec.name << " s=" << s << " t=" << t;
      }
      // The headline verdict must not drift: same per-source T(0.1).
      EXPECT_EQ(exact.mixing_time(s, markov::kHeadlineEpsilon),
                mixed.mixing_time(s, markov::kHeadlineEpsilon))
          << spec.name << " s=" << s;
    }
    EXPECT_EQ(exact.worst_mixing_time(markov::kHeadlineEpsilon),
              mixed.worst_mixing_time(markov::kHeadlineEpsilon))
        << spec.name;
  }
}

TEST(MixedPrecision, BitIdenticalAcrossTiersAndThreads) {
  const graph::FrontierPolicy autof = *graph::parse_frontier_policy("auto");
  const auto spec = gen::find_dataset("Enron");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 11);
  const auto sources = spread_sources(g);
  const markov::SampledMixing reference = [&] {
    const TierGuard guard{simd::Tier::kScalar};
    return run(g, sources, autof, graph::ReorderMode::kRcm, simd::Precision::kMixed);
  }();
  for (const simd::Tier tier : available_tiers()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const TierGuard guard{tier};
      util::set_thread_count(threads);
      const markov::SampledMixing got =
          run(g, sources, autof, graph::ReorderMode::kRcm, simd::Precision::kMixed);
      util::set_thread_count(0);
      expect_bitwise_equal(reference, got,
                           std::string{"mixed tier="} + simd::tier_name(tier) +
                               " threads=" + std::to_string(threads));
    }
  }
}

TEST(MixedPrecision, SpectralPhaseIsExactlyTheF64Spectrum) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g =
      graph::largest_component(gen::build_dataset(*spec, kNodes, 3)).graph;
  core::MeasurementOptions options;
  options.sources = 4;
  options.max_steps = 10;
  const auto exact = core::measure_mixing(g, "f64", options);
  options.precision = simd::Precision::kMixed;
  const auto mixed = core::measure_mixing(g, "mixed", options);
  // --precision only touches the sampled walk kernels; the Lanczos solve
  // always runs f64, so the SLEM agrees to the last bit.
  ASSERT_TRUE(exact.spectral_ran && mixed.spectral_ran);
  EXPECT_EQ(exact.slem, mixed.slem);
  EXPECT_EQ(exact.lambda2, mixed.lambda2);
  EXPECT_EQ(exact.lanczos_iterations, mixed.lanczos_iterations);
}

// ------------------------------------------------------------ checkpoints --

class PrecisionResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path{testing::TempDir()} /
           ("precision_resume_" +
            std::string{
                ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(dir_);
  }
  void TearDown() override {
    resilience::disarm_faults();
    fs::remove_all(dir_);
  }

  [[nodiscard]] markov::SampledMixingOptions options(simd::Precision precision) const {
    markov::SampledMixingOptions opts;
    opts.max_steps = kSteps;
    opts.precision = precision;
    opts.checkpoint.dir = dir_.string();
    opts.checkpoint.interval = 1;
    return opts;
  }

  fs::path dir_;
};

TEST_F(PrecisionResumeTest, ForeignPrecisionSnapshotClassifiesStale) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const auto sources = spread_sources(g, 3 * markov::BatchedEvolver::kDefaultBlock);
  const markov::SampledMixing baseline = run(
      g, sources, *graph::parse_frontier_policy("auto"), graph::ReorderMode::kNone,
      simd::Precision::kMixed);

  // Leave a partial snapshot written under the default f64 precision...
  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(g, sources, options(simd::Precision::kFloat64)),
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
  // ...then resume under --precision mixed: the context word differs, so
  // the f64 snapshot is discarded as stale and every block recomputes in
  // mixed precision — matching an uninterrupted mixed run bit for bit.
  const markov::SampledMixing resumed =
      measure_sampled_mixing(g, sources, options(simd::Precision::kMixed));
  expect_bitwise_equal(baseline, resumed, "recomputed after stale f64 snapshot");
#if SOCMIX_OBS_ENABLED
  EXPECT_GT(stale_count(), stale_before);
#endif
}

TEST_F(PrecisionResumeTest, KilledMixedRunResumesBitIdentical) {
  const auto spec = gen::find_dataset("Physics 1");
  const graph::Graph g = gen::build_dataset(*spec, kNodes, 13);
  const auto sources = spread_sources(g, 3 * markov::BatchedEvolver::kDefaultBlock);
  const markov::SampledMixing baseline = run(
      g, sources, *graph::parse_frontier_policy("auto"), graph::ReorderMode::kNone,
      simd::Precision::kMixed);

  resilience::arm_fault("block.complete:2:error");
  EXPECT_THROW(measure_sampled_mixing(g, sources, options(simd::Precision::kMixed)),
               resilience::InjectedFault);
  resilience::disarm_faults();

  const markov::SampledMixing resumed =
      measure_sampled_mixing(g, sources, options(simd::Precision::kMixed));
  expect_bitwise_equal(baseline, resumed, "resumed mixed vs uninterrupted mixed");
}

}  // namespace
}  // namespace socmix
