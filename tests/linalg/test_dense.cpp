#include "linalg/dense.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "gen/reference.hpp"
#include "util/rng.hpp"

namespace socmix::linalg {
namespace {

TEST(JacobiEigenvalues, DiagonalMatrix) {
  DenseSym m;
  m.n = 3;
  m.a = {2, 0, 0, 0, -1, 0, 0, 0, 5};
  const auto values = jacobi_eigenvalues(m);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_NEAR(values[0], -1, 1e-12);
  EXPECT_NEAR(values[1], 2, 1e-12);
  EXPECT_NEAR(values[2], 5, 1e-12);
}

TEST(JacobiEigenvalues, TwoByTwo) {
  DenseSym m;
  m.n = 2;
  m.a = {0, 1, 1, 0};
  const auto values = jacobi_eigenvalues(m);
  EXPECT_NEAR(values[0], -1, 1e-12);
  EXPECT_NEAR(values[1], 1, 1e-12);
}

/// Dense symmetric tridiagonal matrix with diagonal `diag` and
/// off-diagonal `off` (off[i] couples i and i+1).
DenseSym tridiagonal(const std::vector<double>& diag, const std::vector<double>& off) {
  DenseSym m;
  m.n = diag.size();
  m.a.assign(m.n * m.n, 0.0);
  for (std::size_t i = 0; i < m.n; ++i) m.at(i, i) = diag[i];
  for (std::size_t i = 0; i + 1 < m.n; ++i) m.at(i, i + 1) = m.at(i + 1, i) = off[i];
  return m;
}

TEST(JacobiEigen, EmptyAndScalar) {
  EXPECT_TRUE(jacobi_eigen(DenseSym{}, true).values.empty());
  const auto one = jacobi_eigen(tridiagonal({3.5}, {}), true);
  ASSERT_EQ(one.values.size(), 1u);
  EXPECT_DOUBLE_EQ(one.values[0], 3.5);
  EXPECT_DOUBLE_EQ(one.vectors[0], 1.0);
}

TEST(JacobiEigen, DiagonalMatrix) {
  const auto eig = jacobi_eigen(tridiagonal({3, 1, 2}, {0, 0}), true);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_DOUBLE_EQ(eig.values[0], 1.0);
  EXPECT_DOUBLE_EQ(eig.values[1], 2.0);
  EXPECT_DOUBLE_EQ(eig.values[2], 3.0);
  // Eigenvectors follow their sorted values: unit vectors e1, e2, e0.
  EXPECT_DOUBLE_EQ(eig.vectors[0 * 3 + 1], 1.0);
  EXPECT_DOUBLE_EQ(eig.vectors[1 * 3 + 2], 1.0);
  EXPECT_DOUBLE_EQ(eig.vectors[2 * 3 + 0], 1.0);
}

TEST(JacobiEigen, TwoByTwoClosedForm) {
  // [[a, b], [b, c]]: eigenvalues (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2).
  const double a = 2.0;
  const double b = 1.5;
  const double c = -1.0;
  const auto eig = jacobi_eigen(tridiagonal({a, c}, {b}), false);
  const double mid = (a + c) / 2;
  const double rad = std::sqrt((a - c) * (a - c) / 4 + b * b);
  ASSERT_EQ(eig.values.size(), 2u);
  EXPECT_NEAR(eig.values[0], mid - rad, 1e-12);
  EXPECT_NEAR(eig.values[1], mid + rad, 1e-12);
  EXPECT_TRUE(eig.vectors.empty());
}

TEST(JacobiEigen, ToeplitzClosedForm) {
  // Tridiagonal Toeplitz, diag a, offdiag b: lambda_k = a + 2b cos(k pi / (n+1)).
  const std::size_t n = 12;
  const double a = 0.5;
  const double b = -0.25;
  const auto eig = jacobi_eigen(
      tridiagonal(std::vector<double>(n, a), std::vector<double>(n - 1, b)), false);
  std::vector<double> expected;
  for (std::size_t k = 1; k <= n; ++k) {
    expected.push_back(a + 2 * b * std::cos(static_cast<double>(k) * std::numbers::pi /
                                            static_cast<double>(n + 1)));
  }
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(eig.values[i], expected[i], 1e-10);
}

TEST(JacobiEigen, EigenvectorsSatisfyDefinition) {
  // An arrowhead-plus-tridiagonal matrix, the shape thick-restart Lanczos
  // projects onto.
  DenseSym m = tridiagonal({1.0, -0.5, 2.0, 0.25, 0.75}, {0.0, 0.0, 0.9, -0.4});
  m.at(0, 2) = m.at(2, 0) = 0.7;
  m.at(1, 2) = m.at(2, 1) = -0.3;
  const auto eig = jacobi_eigen(m, true);
  const std::size_t n = m.n;
  ASSERT_EQ(eig.vectors.size(), n * n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      double mv = 0.0;
      for (std::size_t j = 0; j < n; ++j) mv += m.at(i, j) * eig.vectors[k * n + j];
      EXPECT_NEAR(mv, eig.values[k] * eig.vectors[k * n + i], 1e-10);
    }
  }
}

TEST(JacobiEigen, EigenvectorsOrthonormal) {
  const auto eig = jacobi_eigen(tridiagonal({0.1, 0.2, 0.3, 0.4, 0.5}, {1, 1, 1, 1}), true);
  const std::size_t n = 5;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      double d = 0;
      for (std::size_t i = 0; i < n; ++i) d += eig.vectors[a * n + i] * eig.vectors[b * n + i];
      EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(JacobiEigen, TraceAndFrobeniusPreserved) {
  const std::vector<double> diag{2, -1, 0.5, 3, -2, 1};
  const std::vector<double> off{0.3, 0.8, -0.6, 0.1, 1.2};
  const auto eig = jacobi_eigen(tridiagonal(diag, off), false);

  double trace = 0;
  double frob = 0;
  for (const double d : diag) {
    trace += d;
    frob += d * d;
  }
  for (const double e : off) frob += 2 * e * e;

  double trace_eig = 0;
  double frob_eig = 0;
  for (const double v : eig.values) {
    trace_eig += v;
    frob_eig += v * v;
  }
  EXPECT_NEAR(trace, trace_eig, 1e-10);
  EXPECT_NEAR(frob, frob_eig, 1e-9);
}

TEST(JacobiEigen, ValuesAscending) {
  const auto eig = jacobi_eigen(tridiagonal({5, 1, 3, 2, 4}, {0.9, 0.9, 0.9, 0.9}), false);
  for (std::size_t i = 1; i < eig.values.size(); ++i) {
    EXPECT_LE(eig.values[i - 1], eig.values[i]);
  }
}

// ------------------------------------------------------ extremal_eigen_last --

/// extremal_eigen_last on the leading size x size block of `m` against the
/// Jacobi oracle: extreme values within 1e-13 ||T||, and (when
/// `compare_last`) the magnitudes of their eigenvectors' last components
/// within 1e-10. The sign of an eigenvector is arbitrary.
void expect_matches_jacobi(const DenseSym& m, std::size_t size, const std::string& label,
                           bool compare_last = true) {
  DenseSym leading;
  leading.n = size;
  leading.a.resize(size * size);
  for (std::size_t r = 0; r < size; ++r) {
    for (std::size_t c = 0; c < size; ++c) leading.at(r, c) = m.at(r, c);
  }
  const DenseEigen oracle = jacobi_eigen(leading, true);
  const ExtremalEigen cheap = extremal_eigen_last(m, size);
  ASSERT_TRUE(cheap.converged) << label;
  const double norm = std::max(std::fabs(oracle.values.front()), std::fabs(oracle.values.back()));
  EXPECT_NEAR(cheap.min_value, oracle.values.front(), 1e-13 * norm) << label;
  EXPECT_NEAR(cheap.max_value, oracle.values.back(), 1e-13 * norm) << label;
  if (!compare_last) return;
  const double min_last = oracle.vectors[size - 1];
  const double max_last = oracle.vectors[(size - 1) * size + (size - 1)];
  EXPECT_NEAR(std::fabs(cheap.min_last), std::fabs(min_last), 1e-10) << label;
  EXPECT_NEAR(std::fabs(cheap.max_last), std::fabs(max_last), 1e-10) << label;
}

/// A thick-restarted Lanczos matrix: k kept Ritz values on the diagonal
/// (half near the bottom of [-1, 1], half near the top), coupled to index k
/// through the arrowhead `s`, then a tridiagonal tail up to `size`.
DenseSym restarted(std::size_t size, std::size_t k, const std::vector<double>& s,
                   util::Rng& rng) {
  std::vector<double> diag(size);
  std::vector<double> off(size - 1);
  for (std::size_t i = 0; i < size; ++i) diag[i] = 2.0 * rng.uniform() - 1.0;
  for (std::size_t i = 0; i + 1 < size; ++i) off[i] = i < k ? 0.0 : 0.1 + 0.4 * rng.uniform();
  for (std::size_t c = 0; c < k; ++c) {
    diag[c] = c < k / 2 ? -0.9 + 0.01 * static_cast<double>(c)
                        : 0.99 - 0.01 * static_cast<double>(c - k / 2);
  }
  DenseSym m = tridiagonal(diag, off);
  for (std::size_t c = 0; c < k; ++c) m.at(c, k) = m.at(k, c) = s[c];
  return m;
}

TEST(ExtremalEigenLast, EmptyAndScalar) {
  EXPECT_FALSE(extremal_eigen_last(DenseSym{}, 0).converged);
  const ExtremalEigen one = extremal_eigen_last(tridiagonal({-0.25}, {}), 1);
  ASSERT_TRUE(one.converged);
  EXPECT_EQ(one.min_value, -0.25);
  EXPECT_EQ(one.max_value, -0.25);
  EXPECT_EQ(std::fabs(one.min_last), 1.0);
  EXPECT_EQ(std::fabs(one.max_last), 1.0);
}

TEST(ExtremalEigenLast, MatchesJacobiOnTridiagonalMatricesOfEverySize) {
  util::Rng rng{41};
  for (std::size_t size = 1; size <= 64; ++size) {
    std::vector<double> diag(size);
    std::vector<double> off(size - 1);
    for (double& d : diag) d = 2.0 * rng.uniform() - 1.0;
    for (double& e : off) e = rng.uniform() - 0.5;
    expect_matches_jacobi(tridiagonal(diag, off), size, "size " + std::to_string(size));
  }
}

TEST(ExtremalEigenLast, ReadsOnlyTheLeadingBlock) {
  // Lanczos's projected matrix is stored at its full m x m size with only
  // the leading j x j block in use.
  util::Rng rng{42};
  std::vector<double> diag(64);
  std::vector<double> off(63);
  for (double& d : diag) d = 2.0 * rng.uniform() - 1.0;
  for (double& e : off) e = rng.uniform() - 0.5;
  const DenseSym m = tridiagonal(diag, off);
  for (const std::size_t size : {1u, 2u, 17u, 40u, 63u}) {
    expect_matches_jacobi(m, size, "leading " + std::to_string(size));
  }
}

TEST(ExtremalEigenLast, HandlesSplitsAtAZeroOffDiagonal) {
  util::Rng rng{43};
  for (const std::size_t split : {0u, 1u, 20u, 38u}) {
    std::vector<double> diag(40);
    std::vector<double> off(39);
    for (double& d : diag) d = 2.0 * rng.uniform() - 1.0;
    for (double& e : off) e = rng.uniform() - 0.5;
    off[split] = 0.0;
    expect_matches_jacobi(tridiagonal(diag, off), 40, "split " + std::to_string(split));
  }
}

TEST(ExtremalEigenLast, ClusteredAndRepeatedEigenvalues) {
  // Toeplitz 1 + 2b cos(k pi / 65): 64 eigenvalues clustered within 4e-3.
  expect_matches_jacobi(tridiagonal(std::vector<double>(64, 1.0), std::vector<double>(63, 1e-3)),
                        64, "clustered");
  // Two identical blocks split apart: every eigenvalue is double, the
  // extremes included, so which eigenvector either solver returns for an
  // extreme (and so its last component) is arbitrary; the values are not.
  std::vector<double> diag{0.3, -0.2, 0.8, 0.1, 0.3, -0.2, 0.8, 0.1};
  std::vector<double> off{0.5, 0.4, -0.3, 0.0, 0.5, 0.4, -0.3};
  expect_matches_jacobi(tridiagonal(diag, off), 8, "repeated", /*compare_last=*/false);
  // Repeated values inside the spectrum, extremes simple.
  diag = {0.5, 0.5, 0.5, -0.9, 0.95, 0.5, 0.5};
  off = {0.0, 0.0, 0.0, 0.2, 0.0, 0.3};
  expect_matches_jacobi(tridiagonal(diag, off), 7, "repeated inside");
}

TEST(ExtremalEigenLast, MatchesJacobiOnRestartedArrowheads) {
  util::Rng rng{44};
  constexpr std::size_t k = 16;
  std::vector<double> s(k);
  const auto couplings = [&](double scale) {
    for (double& x : s) x = scale * (rng.uniform() - 0.5);
  };
  // j = k + 1 right after a restart (a pure arrowhead), then the growing
  // tridiagonal tail up to the full basis.
  for (const std::size_t size : {k + 1, k + 2, k + 5, std::size_t{40}, std::size_t{64}}) {
    for (const double scale : {1e-1, 1e-4, 1e-9}) {
      couplings(scale);
      expect_matches_jacobi(restarted(size, k, s, rng), size,
                            "size " + std::to_string(size) + " s~" + std::to_string(scale));
    }
  }
  // A converged kept pair (s_c = 0) decouples; so does a whole half.
  couplings(1e-2);
  s[0] = 0.0;
  s[k - 1] = 0.0;
  expect_matches_jacobi(restarted(30, k, s, rng), 30, "decoupled pairs");
  std::fill(s.begin(), s.begin() + k / 2, 0.0);
  expect_matches_jacobi(restarted(30, k, s, rng), 30, "decoupled half");
}

TEST(DenseWalkMatrix, RowSumsViaSimilarity) {
  // N = D^{-1/2} A D^{-1/2} must satisfy N (D^{1/2} 1) = D^{1/2} 1.
  const auto g = gen::dumbbell(5, 2);
  const auto m = dense_walk_matrix(g);
  const std::size_t n = m.n;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += m.at(i, j) * std::sqrt(static_cast<double>(g.degree(static_cast<graph::NodeId>(j))));
    }
    EXPECT_NEAR(acc, std::sqrt(static_cast<double>(g.degree(static_cast<graph::NodeId>(i)))),
                1e-12);
  }
}

TEST(DenseWalkMatrix, IsSymmetric) {
  const auto g = gen::dumbbell(4, 1);
  const auto m = dense_walk_matrix(g);
  for (std::size_t i = 0; i < m.n; ++i)
    for (std::size_t j = 0; j < m.n; ++j) EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
}

TEST(DenseWalkMatrix, LazinessShiftsDiagonal) {
  const auto g = gen::complete(4);
  const auto lazy = dense_walk_matrix(g, 0.5);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(lazy.at(i, i), 0.5);
  // Off-diagonal scaled by (1 - laziness).
  const auto plain = dense_walk_matrix(g, 0.0);
  EXPECT_DOUBLE_EQ(lazy.at(0, 1), 0.5 * plain.at(0, 1));
}

TEST(DenseWalkMatrix, ThrowsOnIsolatedVertex) {
  graph::EdgeList edges;
  edges.add(0, 1);
  edges.ensure_nodes(3);
  const auto g = graph::Graph::from_edges(std::move(edges));
  EXPECT_THROW(dense_walk_matrix(g), std::invalid_argument);
}

TEST(DenseTransitionMatrix, RowStochastic) {
  const auto g = gen::dumbbell(4, 2);
  const auto p = dense_transition_matrix(g);
  const std::size_t n = g.num_nodes();
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0;
    for (std::size_t j = 0; j < n; ++j) row += p[i * n + j];
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
}

TEST(DenseSlem, CompleteGraphClosedForm) {
  // K_n: mu = 1/(n-1).
  for (const graph::NodeId n : {3u, 5u, 10u, 25u}) {
    EXPECT_NEAR(dense_slem(gen::complete(n)), 1.0 / (n - 1.0), 1e-10) << "n=" << n;
  }
}

TEST(DenseSlem, OddCycleClosedForm) {
  // C_n (odd): mu = |cos(pi (n-1)/n)| = cos(pi/n ... ) — the most negative
  // eigenvalue dominates: mu = -cos(2 pi floor(n/2) / n).
  const double n = 11;
  const double expected = std::fabs(std::cos(2 * M_PI * 5 / n));
  EXPECT_NEAR(dense_slem(gen::cycle(11)), expected, 1e-10);
}

TEST(DenseSlem, BipartiteGraphsArePeriodic) {
  EXPECT_NEAR(dense_slem(gen::star(8)), 1.0, 1e-10);
  EXPECT_NEAR(dense_slem(gen::complete_bipartite(3, 4)), 1.0, 1e-10);
}

TEST(DenseSlem, HypercubeClosedForm) {
  // Q_d is bipartite: lambda_min = -1 -> mu = 1.
  EXPECT_NEAR(dense_slem(gen::hypercube(4)), 1.0, 1e-10);
}

}  // namespace
}  // namespace socmix::linalg
