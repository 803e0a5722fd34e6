// Dense symmetric eigensolvers: cyclic Jacobi — the reference oracle and
// Lanczos's full projected eigensolve — and a check-only extremal solver
// for Lanczos's convergence test.
//
// Jacobi is used for tiny graphs and in tests to validate Lanczos: it is
// slow (O(n^3) per sweep) but unconditionally convergent and accurate to
// machine precision, which makes it the right ground truth. The same
// routine diagonalizes Lanczos's projected matrix, which thick restart
// bounds at kLanczosBasis x kLanczosBasis, whenever Lanczos needs Ritz
// vectors or a convergence decision. Between those, extremal_eigen_last
// answers the cheaper question a convergence check asks: the extremal
// eigenvalues and the last components of their eigenvectors, in O(n^2).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace socmix::linalg {

/// Dense symmetric matrix in row-major order.
struct DenseSym {
  std::size_t n = 0;
  std::vector<double> a;  // n*n, symmetric

  [[nodiscard]] double& at(std::size_t i, std::size_t j) noexcept { return a[i * n + j]; }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept { return a[i * n + j]; }
};

/// Builds the dense symmetrized walk operator N = D^{-1/2} A D^{-1/2}
/// (optionally lazy) for a small graph. Intended for n <= a few thousand.
[[nodiscard]] DenseSym dense_walk_matrix(const graph::Graph& g, double laziness = 0.0);

/// Builds the dense row-stochastic transition matrix P = D^{-1} A.
/// Not symmetric; used by brute-force distribution evolution tests.
[[nodiscard]] std::vector<double> dense_transition_matrix(const graph::Graph& g);

/// Eigen-decomposition of a dense symmetric matrix.
struct DenseEigen {
  /// Eigenvalues in ascending order.
  std::vector<double> values;
  /// Row-major n x n eigenvector matrix; vectors[k*n + i] is component i of
  /// the unit eigenvector for values[k]. Empty when vectors were not
  /// requested.
  std::vector<double> vectors;
};

/// All eigenvalues (and optionally the orthonormal eigenvectors) of a dense
/// symmetric matrix via cyclic Jacobi rotations. Works on a copy.
[[nodiscard]] DenseEigen jacobi_eigen(DenseSym m, bool want_vectors, int max_sweeps = 60);

/// The extremal eigenpairs of a symmetric matrix, summarized by the last
/// components of their unit eigenvectors (each up to sign).
struct ExtremalEigen {
  double min_value = 0.0;
  double max_value = 0.0;
  double min_last = 0.0;  ///< last component of the eigenvector of min_value
  double max_last = 0.0;  ///< last component of the eigenvector of max_value
  /// False when the QL iteration ran out of steps; the fields above are
  /// then not meaningful.
  bool converged = false;
};

/// The extremal eigenvalues of the leading size x size block of `m` and the
/// last components of their unit eigenvectors, without forming any
/// eigenvector. Householder reduction to tridiagonal form runs from the
/// bottom, so index size - 1 never moves and the last components are those
/// of the tridiagonal matrix; a column that is already tridiagonal costs
/// only its zero test. Implicit QL then carries only the last row of the
/// eigenvector matrix (as ARPACK's dstqrb does). O(size^2) for a
/// tridiagonal matrix, plus O(k^3) for a k x k leading block that is not,
/// such as the arrowhead of a thick-restarted Lanczos matrix.
[[nodiscard]] ExtremalEigen extremal_eigen_last(const DenseSym& m, std::size_t size);

/// All eigenvalues of a dense symmetric matrix, ascending.
[[nodiscard]] std::vector<double> jacobi_eigenvalues(DenseSym m, int max_sweeps = 60);

/// Exact SLEM of a small graph's transition matrix by dense decomposition:
/// mu = max(lambda_2, |lambda_n|). The graph must have no isolated nodes.
[[nodiscard]] double dense_slem(const graph::Graph& g);

}  // namespace socmix::linalg
