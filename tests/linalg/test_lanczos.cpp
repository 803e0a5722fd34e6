#include "linalg/lanczos.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <numbers>
#include <sstream>
#include <string>
#include <type_traits>

#include "gen/barabasi_albert.hpp"
#include "gen/datasets.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/powerlaw_cluster.hpp"
#include "gen/reference.hpp"
#include "gen/sbm.hpp"
#include "gen/watts_strogatz.hpp"
#include "graph/components.hpp"
#include "graph/io.hpp"
#include "linalg/dense.hpp"
#include "linalg/simd/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "resilience/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "simd_tiers.hpp"

namespace socmix::linalg {
namespace {

// The operator keeps a pointer to its graph: built from a temporary it
// would dangle, so that is a compile error.
static_assert(!std::is_constructible_v<WalkOperator, graph::Graph&&>);
static_assert(!std::is_constructible_v<WalkOperator, graph::Graph&&, double>);
static_assert(std::is_constructible_v<WalkOperator, const graph::Graph&>);

TEST(Lanczos, CompleteGraphClosedForm) {
  // K_n: lambda_2 = ... = lambda_n = -1/(n-1) -> mu = 1/(n-1).
  for (const graph::NodeId n : {3u, 8u, 20u, 100u}) {
    const auto g = gen::complete(n);
    const auto s = slem_spectrum(WalkOperator{g});
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.slem, 1.0 / (n - 1.0), 1e-8) << "n=" << n;
    EXPECT_NEAR(s.lambda2, -1.0 / (n - 1.0), 1e-8) << "n=" << n;
  }
}

TEST(Lanczos, OddCycleClosedForm) {
  // C_n eigenvalues cos(2 pi k/n); for odd n the SLEM is |cos(pi(n-1)/n)|.
  for (const graph::NodeId n : {5u, 11u, 25u}) {
    const auto g = gen::cycle(n);
    const auto s = slem_spectrum(WalkOperator{g});
    const double lambda2 = std::cos(2 * std::numbers::pi / n);
    const double lambda_min = std::cos(2 * std::numbers::pi * ((n - 1) / 2) / n);
    EXPECT_NEAR(s.lambda2, lambda2, 1e-8) << "n=" << n;
    EXPECT_NEAR(s.lambda_min, lambda_min, 1e-8) << "n=" << n;
    EXPECT_NEAR(s.slem, std::max(lambda2, std::fabs(lambda_min)), 1e-8);
  }
}

TEST(Lanczos, BipartiteGraphsHaveSlemOne) {
  for (const auto* name : {"star", "bipartite", "hypercube"}) {
    graph::Graph g;
    if (std::string_view{name} == "star") g = gen::star(30);
    if (std::string_view{name} == "bipartite") g = gen::complete_bipartite(6, 9);
    if (std::string_view{name} == "hypercube") g = gen::hypercube(5);
    const auto s = slem_spectrum(WalkOperator{g});
    EXPECT_NEAR(s.slem, 1.0, 1e-7) << name;
    EXPECT_NEAR(s.lambda_min, -1.0, 1e-7) << name;
  }
}

TEST(Lanczos, HypercubeLambda2ClosedForm) {
  // Q_d: eigenvalues 1 - 2k/d -> lambda_2 = 1 - 2/d.
  for (const unsigned d : {3u, 5u, 7u}) {
    const auto g = gen::hypercube(d);
    const auto s = slem_spectrum(WalkOperator{g});
    EXPECT_NEAR(s.lambda2, 1.0 - 2.0 / d, 1e-8) << "d=" << d;
  }
}

TEST(Lanczos, LazyWalkUnmapsToSimpleSpectrum) {
  // The lazy operator (I+N)/2 reports eigenvalues mapped back to P-space,
  // so results must agree with the simple walk where both are ergodic.
  const auto g = gen::complete(12);
  const auto simple = slem_spectrum(WalkOperator{g, 0.0});
  const auto lazy = slem_spectrum(WalkOperator{g, 0.5});
  EXPECT_NEAR(simple.lambda2, lazy.lambda2, 1e-7);
  EXPECT_NEAR(simple.lambda_min, lazy.lambda_min, 1e-7);
}

TEST(Lanczos, LazyWalkBreaksPeriodicity) {
  // Star is periodic (mu = 1) but its lazy chain mixes: lambda of lazy =
  // (1 + lambda)/2 in [0, 1], so in P-space lambda_min maps back to -1 but
  // the *lazy* SLEM max((1+l2)/2, |(1+lmin)/2|) = 1/2.
  const auto g = gen::star(20);
  const WalkOperator lazy{g, 0.5};
  const auto s = slem_spectrum(lazy);
  // Reported in P-space:
  EXPECT_NEAR(s.lambda_min, -1.0, 1e-7);
  EXPECT_NEAR(s.lambda2, 0.0, 1e-7);
  // The lazy chain's own SLEM:
  EXPECT_NEAR(lazy.map_eigenvalue(s.lambda2), 0.5, 1e-7);
}

class LanczosVsDense : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LanczosVsDense, AgreesOnRandomGraphs) {
  util::Rng rng{GetParam()};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(80, 200, rng)).graph;
  const auto lanczos = slem_spectrum(WalkOperator{g});
  const double exact = dense_slem(g);
  EXPECT_NEAR(lanczos.slem, exact, 1e-7) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LanczosVsDense,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(Lanczos, BarabasiAlbertVsDense) {
  util::Rng rng{42};
  const auto g = gen::barabasi_albert(150, 3, rng);
  const auto lanczos = slem_spectrum(WalkOperator{g});
  EXPECT_NEAR(lanczos.slem, dense_slem(g), 1e-7);
}

TEST(Lanczos, DumbbellSlowMixing) {
  // Sparse-cut graphs push mu toward 1; the single-bridge dumbbell must be
  // much slower than the two-clique volume suggests.
  const auto tight_graph = gen::dumbbell(20, 10);
  const auto loose_graph = gen::dumbbell(20, 1);
  const auto tight = slem_spectrum(WalkOperator{tight_graph});
  const auto loose = slem_spectrum(WalkOperator{loose_graph});
  EXPECT_GT(loose.slem, tight.slem);
  EXPECT_GT(loose.slem, 0.99);
}

TEST(Lanczos, Lambda2VectorIsEigenvector) {
  const auto g = gen::dumbbell(12, 1);
  const WalkOperator op{g};
  const auto s = slem_spectrum_with_vector(op);
  ASSERT_EQ(s.lambda2_vector.size(), op.dim());
  EXPECT_NEAR(norm2(s.lambda2_vector), 1.0, 1e-9);

  Vec out(op.dim());
  op.apply(s.lambda2_vector, out);
  // || N v - lambda2 v || should be tiny.
  axpy(-s.lambda2, s.lambda2_vector, out);
  EXPECT_LT(norm2(out), 1e-6);
}

TEST(Lanczos, TwoNodeGraph) {
  // Single edge: spectrum {1, -1}; deflated spectrum {-1}.
  const auto g = gen::path(2);
  const auto s = slem_spectrum(WalkOperator{g});
  EXPECT_TRUE(s.converged);
  EXPECT_NEAR(s.slem, 1.0, 1e-10);
  EXPECT_NEAR(s.lambda_min, -1.0, 1e-10);
}

TEST(Lanczos, DeterministicForFixedSeed) {
  util::Rng rng{9};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(100, 250, rng)).graph;
  LanczosOptions opt;
  opt.seed = 777;
  const auto a = slem_spectrum(WalkOperator{g}, opt);
  const auto b = slem_spectrum(WalkOperator{g}, opt);
  EXPECT_DOUBLE_EQ(a.slem, b.slem);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Lanczos, SeedInsensitiveResult) {
  util::Rng rng{10};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(100, 250, rng)).graph;
  LanczosOptions opt_a;
  opt_a.seed = 1;
  LanczosOptions opt_b;
  opt_b.seed = 999;
  const auto a = slem_spectrum(WalkOperator{g}, opt_a);
  const auto b = slem_spectrum(WalkOperator{g}, opt_b);
  EXPECT_NEAR(a.slem, b.slem, 1e-7);
}

/// WalkLikeOperator wrapper counting every apply() of the wrapped operator.
class CountingOperator {
 public:
  explicit CountingOperator(const WalkOperator& op) : op_{&op} {}
  [[nodiscard]] std::size_t dim() const { return op_->dim(); }
  void apply(std::span<const double> x, std::span<double> y) const {
    ++applies_;
    op_->apply(x, y);
  }
  [[nodiscard]] std::vector<double> top_eigenvector() const { return op_->top_eigenvector(); }
  [[nodiscard]] double laziness() const { return op_->laziness(); }
  [[nodiscard]] std::size_t applies() const { return applies_; }

 private:
  const WalkOperator* op_;
  mutable std::size_t applies_ = 0;
};

TEST(Lanczos, IterationCapRespected) {
  // The cap counts operator applications: Lanczos steps across restarts
  // plus the certificate's two.
  util::Rng rng{12};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(300, 600, rng)).graph;
  const WalkOperator op{g};
  for (const std::size_t cap : {3u, 10u, 60u, 130u}) {
    const CountingOperator counting{op};
    LanczosOptions opt;
    opt.max_iterations = cap;
    opt.tolerance = 1e-15;  // unreachable: runs until the cap
    const auto s = slem_spectrum(counting, opt);
    EXPECT_LE(counting.applies(), cap) << "cap=" << cap;
    EXPECT_EQ(s.iterations, counting.applies()) << "cap=" << cap;
    EXPECT_FALSE(s.converged) << "cap=" << cap;
  }
  EXPECT_THROW((void)slem_spectrum(op, LanczosOptions{.max_iterations = 2}),
               std::invalid_argument);
}

TEST(Lanczos, CertificateFaultFailsTheSolveWithoutThrowing) {
  // An `error` fault at "lanczos.certificate" marks the certificate failed
  // and leaves every computed value as it was; the next solve is clean.
  util::Rng rng{13};
  const auto g = graph::largest_component(gen::erdos_renyi_gnm(100, 250, rng)).graph;
  const WalkOperator op{g};
  const auto clean = slem_spectrum(op);
  ASSERT_TRUE(clean.converged);

  resilience::arm_fault("lanczos.certificate:1:error");
  SpectrumResult faulted;
  EXPECT_NO_THROW(faulted = slem_spectrum(op));
  const auto after = slem_spectrum(op);
  resilience::disarm_faults();

  EXPECT_FALSE(faulted.converged);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(faulted.slem),
            std::bit_cast<std::uint64_t>(clean.slem));
  EXPECT_EQ(faulted.iterations, clean.iterations);
  EXPECT_EQ(faulted.certified_residual, clean.certified_residual);
  EXPECT_TRUE(after.converged);
}

/// Graphs of n <= 300 whose spectra take more than kLanczosBasis applies.
std::vector<std::pair<std::string, graph::Graph>> restart_graphs() {
  util::Rng rng{2024};
  std::vector<std::pair<std::string, graph::Graph>> out;
  const auto add = [&out](std::string name, graph::Graph g) {
    out.emplace_back(std::move(name), graph::largest_component(g).graph);
  };
  add("erdos_renyi", gen::erdos_renyi_gnm(300, 500, rng));
  add("barabasi_albert", gen::barabasi_albert(200, 2, rng));
  add("watts_strogatz", gen::watts_strogatz(200, 4, 0.1, rng));
  add("sbm", gen::planted_communities(3, 100, 3.0, 0.2, rng));
  add("powerlaw_cluster", gen::powerlaw_cluster(200, 2, 0.5, rng));
  return out;
}

TEST(Lanczos, RestartedPathMatchesDenseOracle) {
  for (const auto& [name, g] : restart_graphs()) {
    const auto s = slem_spectrum(WalkOperator{g});
    const auto values = jacobi_eigenvalues(dense_walk_matrix(g));
    ASSERT_GE(values.size(), 2u) << name;
    EXPECT_TRUE(s.converged) << name;
    EXPECT_GT(s.restarts, 0u) << name;
    EXPECT_GT(s.iterations, kLanczosBasis) << name;
    EXPECT_NEAR(s.lambda2, values[values.size() - 2], 1e-7) << name;
    EXPECT_NEAR(s.lambda_min, values.front(), 1e-7) << name;
    EXPECT_NEAR(s.slem, std::max(values[values.size() - 2], std::fabs(values.front())), 1e-7)
        << name;
  }
}

TEST(Lanczos, RestartedRitzVectorIsEigenvector) {
  util::Rng rng{31};
  const auto g = graph::largest_component(gen::watts_strogatz(300, 4, 0.05, rng)).graph;
  const WalkOperator op{g};
  const auto s = slem_spectrum_with_vector(op);
  ASSERT_TRUE(s.converged);
  ASSERT_GT(s.restarts, 0u);
  ASSERT_EQ(s.lambda2_vector.size(), op.dim());
  EXPECT_NEAR(norm2(s.lambda2_vector), 1.0, 1e-9);
  // Orthogonal to the deflated top eigenvector.
  EXPECT_NEAR(dot(s.lambda2_vector, op.top_eigenvector()), 0.0, 1e-9);

  Vec out(op.dim());
  op.apply(s.lambda2_vector, out);
  axpy(-s.lambda2, s.lambda2_vector, out);
  EXPECT_LT(norm2(out), 1e-6);
  EXPECT_LE(norm2(out), s.certified_residual * (1 + 1e-6) + 1e-15);
  EXPECT_LE(s.certified_residual, kLanczosCertificateSlack * LanczosOptions{}.tolerance);
}

/// mu (= lambda_2 on every row) and lambda_min of the Table-1 stand-ins at
/// 2000 nodes (generator seed 11), with the applies they took, as solved
/// with a full CGS2 pass on every Lanczos step. Partial
/// reorthogonalization must reproduce them.
struct Table1Spectrum {
  const char* name;
  double mu;
  double lambda_min;
  std::size_t applies;
};
constexpr Table1Spectrum kFullReorthSpectra[] = {
    {"Wiki-vote", 0.84197666577440611, -0.30201193536343002, 152},
    {"Slashdot 2", 0.97417929877966569, -0.46852189007092154, 132},
    {"Slashdot 1", 0.9767400659317742, -0.47212015397128487, 112},
    {"Facebook", 0.89697543673344404, -0.3019352035214275, 152},
    {"Physics 1", 0.99726174222583397, -0.63281319943775793, 157},
    {"Physics 2", 0.99703690357297448, -0.36211102705331466, 157},
    {"Physics 3", 0.99708207559288398, -0.64237317633193525, 147},
    {"Enron", 0.99558736856373709, -0.52481669386861274, 147},
    {"Epinion", 0.99387765276013529, -0.53731751039092213, 137},
    {"DBLP", 0.99773961597934635, -0.67183691234361687, 102},
    {"Facebook A", 0.32305275940459294, -0.29600657122951218, 122},
    {"Facebook B", 0.36126712759763835, -0.3258781890294225, 172},
    {"Livejournal A", 0.29594419524035515, -0.250813934770376, 132},
    {"Livejournal B", 0.28665995553955664, -0.24371936435802882, 122},
    {"Youtube", 0.99556635797427939, -0.68725173594972744, 152},
};

TEST(Lanczos, PartialReorthogonalizationKeepsTable1Spectra) {
  ASSERT_EQ(std::size(kFullReorthSpectra), gen::table1_datasets().size());
  for (const Table1Spectrum& want : kFullReorthSpectra) {
    const auto spec = gen::find_dataset(want.name);
    ASSERT_TRUE(spec.has_value()) << want.name;
    const auto g = gen::build_dataset(*spec, 2000, 11);
    const auto s = slem_spectrum(WalkOperator{g});
    EXPECT_TRUE(s.converged) << want.name;
    EXPECT_NEAR(s.slem, want.mu, 1e-9) << want.name;
    EXPECT_NEAR(s.lambda2, want.mu, 1e-9) << want.name;
    EXPECT_NEAR(s.lambda_min, want.lambda_min, 1e-9) << want.name;
    EXPECT_LE(s.iterations, want.applies + want.applies / 20) << want.name;
  }
}

TEST(Lanczos, FullPassesAreTheExceptionOnASlowMixingStandIn) {
  // Physics 1 (slow class): a restarted solve of about 160 applies.
  const auto g = gen::build_dataset(*gen::find_dataset("Physics 1"), 2000, 11);
  const auto s = slem_spectrum(WalkOperator{g});
  ASSERT_TRUE(s.converged);
  ASSERT_GT(s.restarts, 0u);
  EXPECT_GT(s.full_reorthogonalizations, 0u);
  EXPECT_LE(s.full_reorthogonalizations, s.iterations / 3);
}

TEST(Lanczos, BitIdenticalAcrossThreadCounts) {
  // Several kLanczosRowChunk chunks and several WalkOperator grains.
  util::Rng rng{77};
  const auto g = graph::largest_component(gen::community_powerlaw(8, 700, 2, 0.4, 2.0, rng))
                     .graph;
  ASSERT_GT(g.num_nodes(), 4 * kLanczosRowChunk);
  const WalkOperator op{g};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<SpectrumResult> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::set_thread_count(threads);
    runs.push_back(slem_spectrum_with_vector(op));
  }
  util::set_thread_count(0);
  const SpectrumResult& ref = runs.front();
  EXPECT_TRUE(ref.converged);
  EXPECT_GT(ref.restarts, 0u);
  EXPECT_GT(ref.full_reorthogonalizations, 0u);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const SpectrumResult& s = runs[r];
    EXPECT_EQ(bits(s.lambda2), bits(ref.lambda2)) << "run " << r;
    EXPECT_EQ(bits(s.lambda_min), bits(ref.lambda_min)) << "run " << r;
    EXPECT_EQ(bits(s.slem), bits(ref.slem)) << "run " << r;
    EXPECT_EQ(bits(s.certified_residual), bits(ref.certified_residual)) << "run " << r;
    EXPECT_EQ(s.iterations, ref.iterations) << "run " << r;
    EXPECT_EQ(s.restarts, ref.restarts) << "run " << r;
    EXPECT_EQ(s.full_reorthogonalizations, ref.full_reorthogonalizations) << "run " << r;
    EXPECT_EQ(s.converged, ref.converged) << "run " << r;
    ASSERT_EQ(s.lambda2_vector.size(), ref.lambda2_vector.size());
    EXPECT_EQ(std::memcmp(s.lambda2_vector.data(), ref.lambda2_vector.data(),
                          ref.lambda2_vector.size() * sizeof(double)),
              0)
        << "run " << r;
  }
}

TEST(Lanczos, BitIdenticalAcrossTiers) {
  // The basis kernels (dot, axpy, divide, combine) run on the dispatched
  // tier; every tier must give the same bits, restarts included.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const char* name : {"Wiki-vote", "Physics 1", "Facebook A", "Livejournal A", "Youtube"}) {
    const graph::Graph g = gen::build_dataset(*gen::find_dataset(name), 3000, 11);
    const WalkOperator op{g};
    std::vector<SpectrumResult> runs;
    for (const simd::Tier tier : test::available_tiers()) {
      const test::TierGuard guard{tier};
      ASSERT_TRUE(guard.ok());
      runs.push_back(slem_spectrum_with_vector(op));
    }
    const SpectrumResult& ref = runs.front();
    EXPECT_TRUE(ref.converged) << name;
    EXPECT_GT(ref.restarts, 0u) << name;
    for (std::size_t r = 1; r < runs.size(); ++r) {
      const SpectrumResult& s = runs[r];
      EXPECT_EQ(bits(s.slem), bits(ref.slem)) << name << " tier " << r;
      EXPECT_EQ(bits(s.lambda2), bits(ref.lambda2)) << name << " tier " << r;
      EXPECT_EQ(bits(s.lambda_min), bits(ref.lambda_min)) << name << " tier " << r;
      EXPECT_EQ(bits(s.certified_residual), bits(ref.certified_residual)) << name;
      EXPECT_EQ(s.iterations, ref.iterations) << name << " tier " << r;
      EXPECT_EQ(s.jacobi_solves, ref.jacobi_solves) << name << " tier " << r;
      ASSERT_EQ(s.lambda2_vector.size(), ref.lambda2_vector.size());
      EXPECT_EQ(std::memcmp(s.lambda2_vector.data(), ref.lambda2_vector.data(),
                            ref.lambda2_vector.size() * sizeof(double)),
                0)
          << name << " tier " << r;
    }
  }
}

TEST(Lanczos, ConvergenceChecksRarelyNeedTheJacobiSolve) {
  // The 20K LiveJournal A stand-in as an edge list loads it (first-
  // appearance labels, then the largest component): 267 applies over five
  // restarts. Besides the restarts, only checks whose cheap residual
  // estimate is within kLanczosCheckGuard of the tolerance pay for Jacobi.
  const graph::Graph generated =
      gen::build_dataset(*gen::find_dataset("Livejournal A"), 20000, 42);
  std::stringstream edges;
  graph::save_edge_list(generated, edges);
  const graph::Graph g = graph::largest_component(graph::load_edge_list(edges).graph).graph;
  const auto s = slem_spectrum(WalkOperator{g});
  ASSERT_TRUE(s.converged);
  ASSERT_GT(s.restarts, 0u);
  EXPECT_GT(s.jacobi_solves, s.restarts);
  EXPECT_LE(s.jacobi_solves, s.restarts + 6);
}

}  // namespace
}  // namespace socmix::linalg
