// Symmetric thick-restart Lanczos eigensolver.
//
// Computes the extremal eigenvalues of a symmetrized walk operator
// N = D^{-1/2} A D^{-1/2} — in particular
// lambda_2 (second largest) and lambda_min — from which the paper's SLEM is
//     mu = max(lambda_2, |lambda_min|).
//
// The known top eigenpair (1, D^{1/2} 1) is deflated analytically: it is
// column 0 of the basis and every Lanczos vector is kept orthogonal to it,
// so the *largest* Ritz value of the deflated operator is exactly lambda_2.
//
// Thick restart (Wu & Simon 2000) — the restarted family of ARPACK and
// MATLAB eigs, the paper's own solver. The basis holds at most
// kLanczosBasis Lanczos vectors. When it is full, the kLanczosKeep Ritz
// pairs at *each* end of the spectrum are kept, the basis is rotated onto
// their Ritz vectors and Lanczos continues from the residual vector, so the
// projected matrix becomes diagonal + arrowhead + tridiagonal. Memory is
// at most (kLanczosBasis + 4) n doubles however many applies convergence
// takes.
//
// Partial reorthogonalization (Simon 1984, as in PROPACK). Each new vector
// is orthogonalized, by classical Gram-Schmidt run twice ("twice is
// enough" — Kahan/Parlett), against the deflation column and the two
// newest Lanczos vectors only. Simon's omega recurrence, written over the
// projected matrix T so it also covers the arrowhead after a thick
// restart, estimates the vector's loss of orthogonality against the rest
// of the basis. When the largest estimate passes sqrt(eps), that vector
// and the next one get a full pass against the whole basis, which keeps
// the basis semi-orthogonal: T is then the projection of the operator to
// working precision, so the Ritz values are those of full
// reorthogonalization. The first step after a restart is always a full
// pass, because its arrowhead couples it to every kept Ritz vector. Most
// steps thus touch three basis columns instead of all of them. The row
// loops run in fixed kLanczosRowChunk-row chunks over util::parallel_for
// and the per-chunk partial sums are reduced in chunk order, so every
// output bit is the same at any thread count.
//
// The row loops over the basis (CGS2 dots and subtractions, the column
// divide, the restart rotation and the Ritz vectors) are the dispatched
// SIMD tier's basis kernels (linalg/simd/kernels.hpp), bitwise equal on
// every tier.
//
// Convergence is checked every check_every applies: both extremal Ritz
// pairs need |beta * s_last| <= tolerance. The full Jacobi eigensolve with
// eigenvectors runs at a restart, when the basis is exhausted, when the
// applies are spent, and when the O(j^2) extremal_eigen_last estimate is
// within kLanczosCheckGuard of the tolerance; only Jacobi's estimate
// decides. Every other check costs the O(j^2) solve alone, and the stop,
// the restarts and every Ritz value are those of a Jacobi solve at every
// check.
//
// After convergence the residual ||N y - theta y|| of both extremal Ritz
// pairs is computed explicitly (two more applies): a certificate that does
// not trust the Lanczos recurrence's own residual estimate.
//
// The solver is generic over any operator satisfying WalkLikeOperator:
// WalkOperator, and wrappers around it that count or time its applies.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/walk_operator.hpp"
#include "obs/obs.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace socmix::linalg {

/// Requirements on a matrix-free symmetric walk operator: dimension, SpMV,
/// the analytically-known top eigenvector, and the lazy-walk affine map.
template <typename Op>
concept WalkLikeOperator = requires(const Op op, std::span<const double> x,
                                    std::span<double> y) {
  { op.dim() } -> std::convertible_to<std::size_t>;
  { op.apply(x, y) };
  { op.top_eigenvector() } -> std::convertible_to<std::vector<double>>;
  { op.laziness() } -> std::convertible_to<double>;
};

/// Lanczos vectors the basis holds before a thick restart (m), chosen by
/// measurement in [48, 64]. On the 1M-node LiveJournal A pack m = 48 needs
/// 992 applies (8 under the default cap) and m = 64 needs 827 in the same
/// wall time; on 20K-100K-node stand-ins m = 48 is up to 15% faster.
inline constexpr std::size_t kLanczosBasis = 64;
/// Ritz pairs kept at each end of the spectrum on a restart (m/8).
inline constexpr std::size_t kLanczosKeep = kLanczosBasis / 8;
/// Rows per reorthogonalization chunk. Fixed, so the order partial sums are
/// reduced in — and hence every output bit — is independent of the thread
/// count.
inline constexpr std::size_t kLanczosRowChunk = 1024;
/// A residual norm at or below this ends the solve: the Krylov space is an
/// invariant subspace and the Ritz values are exact.
inline constexpr double kLanczosBreakdown = 1e-14;
/// The certificate fails when an explicit Ritz residual exceeds this
/// multiple of LanczosOptions::tolerance.
inline constexpr double kLanczosCertificateSlack = 10.0;
/// A convergence check runs the Jacobi eigensolve only when both cheap
/// residual estimates (extremal_eigen_last) are within this multiple of
/// LanczosOptions::tolerance. The two solvers' estimates agree far more
/// closely than this band, so the decision, and every bit after it, is the
/// one a Jacobi solve at every check would make.
inline constexpr double kLanczosCheckGuard = 10.0;

struct LanczosOptions {
  /// Maximum operator applications, restarts and the two certificate
  /// applies included; at least 3. Memory does not grow with it.
  std::size_t max_iterations = 1000;
  /// Convergence: residual bound |beta_k * s_last| on both extremal Ritz
  /// pairs must fall below this.
  double tolerance = 1e-8;
  /// Seed for the random start vector.
  std::uint64_t seed = 0x1a2b3c4d5e6f7788ULL;
  /// Check convergence every this many applies.
  std::size_t check_every = 5;
};

/// Extremal spectrum of the (deflated) walk operator.
struct SpectrumResult {
  /// Second largest eigenvalue of the transition matrix P (lambda_2).
  double lambda2 = 0.0;
  /// Smallest eigenvalue of P (lambda_n; can approach -1 for near-bipartite
  /// structures).
  double lambda_min = 0.0;
  /// Second largest eigenvalue modulus: mu = max(lambda2, |lambda_min|).
  double slem = 0.0;
  /// Operator applications used, the certificate's two included.
  std::size_t iterations = 0;
  /// Thick restarts performed.
  std::size_t restarts = 0;
  /// Steps whose new vector got a full pass against the whole basis (the
  /// rest were orthogonalized against the two newest vectors only).
  std::size_t full_reorthogonalizations = 0;
  /// Jacobi eigensolves of the projected matrix (restarts, the final
  /// check, and checks whose cheap estimate fell within the guard band).
  std::size_t jacobi_solves = 0;
  /// max over the two extremal Ritz pairs (theta, y) of ||Op y - theta y||,
  /// computed explicitly in the operator's own (possibly lazy) space.
  double certified_residual = 0.0;
  /// Whether both extremal Ritz pairs met the residual tolerance and the
  /// certificate stayed within kLanczosCertificateSlack * tolerance.
  bool converged = false;
  /// Ritz vector for lambda_2 in the symmetrized space (length n). Filled
  /// only by slem_spectrum_with_vector.
  std::vector<double> lambda2_vector;
};

namespace detail {

/// One contiguous, vector-major buffer of the deflation vector (column 0)
/// and up to `capacity` Lanczos vectors (columns 1..capacity). Every row
/// loop runs in kLanczosRowChunk chunks; reductions sum the per-chunk
/// partials in chunk order.
class KrylovBasis {
 public:
  KrylovBasis(std::span<const double> deflate, std::size_t capacity);

  [[nodiscard]] std::span<double> column(std::size_t j) noexcept {
    return {data_.data() + j * n_, n_};
  }

  /// CGS2: removes from w its components along columns 0..last, twice.
  /// `coeff[i]` receives the coefficient of column i summed over both
  /// passes; returns ||w|| afterwards.
  double orthogonalize(std::span<double> w, std::size_t last, std::vector<double>& coeff);

  /// CGS2 against the deflation column and the newest columns j - 1 and j
  /// only (j >= 1; for j = 1 those are columns 0 and 1). `coeff.back()`
  /// receives the coefficient of column j summed over both passes; returns
  /// ||w|| afterwards.
  double orthogonalize_local(std::span<double> w, std::size_t j, std::vector<double>& coeff);

  /// column(j) = w / norm.
  void set_column(std::size_t j, std::span<const double> w, double norm);

  /// out[c] = sum_{i < used} coeffs[c * used + i] * column(1 + i) for each
  /// c < out.size(). An output may be one of the basis columns (in-place
  /// rotation): every chunk is read in full before any of it is written.
  void combine(std::size_t used, std::span<const double> coeffs,
               std::span<const std::span<double>> out);

 private:
  /// CGS2 of w against `columns`; coeff[i] is the coefficient of
  /// columns[i]. Returns ||w|| afterwards.
  double orthogonalize_columns(std::span<double> w, std::span<const std::size_t> columns,
                               std::vector<double>& coeff);

  std::size_t n_;
  std::size_t chunks_;
  std::size_t stride_;  ///< doubles of partials per chunk
  util::aligned_vector<double> data_;  ///< (capacity + 1) * n: huge-page backed at scale
  std::vector<double> partial_;
  std::vector<std::size_t> all_columns_;  ///< 0..capacity, for full passes
  std::vector<double> h_;
};

/// Simon's omega recurrence: running estimates omega(i, k) ~ q_i^T q_k of
/// the loss of orthogonality between the Lanczos vectors of T indices i
/// and k (basis columns i + 1 and k + 1). Pure O(m^2) bookkeeping on the
/// projected matrix, so it costs nothing next to one basis column.
class OrthogonalityEstimate {
 public:
  /// Estimates over T indices 0..size-1 for an operator of dimension n.
  OrthogonalityEstimate(std::size_t size, std::size_t n);

  /// Estimates the row of the candidate vector q (T index p + 1) from the
  /// rows before it: beta * omega(q, k) = (T omega)(k, p) - (T omega)(p, k)
  /// over T indices 0..p, plus a rounding term. Only the first p + 1 rows
  /// of `t` (rows 0..p) may be set. Returns max_k |omega(q, k)|.
  double advance(const DenseSym& t, std::size_t p, double beta);

  /// Row q after a full pass: orthogonal to working precision.
  void reset(std::size_t q);

  /// After a thick restart onto the Ritz vectors `kept` (indices into the
  /// row-major Ritz vectors `vectors` of T_m): the kept vectors become T
  /// indices 0..k-1 and the residual (old T index m) becomes index k.
  void restart(std::span<const double> vectors, std::size_t m,
               std::span<const std::size_t> kept);

 private:
  [[nodiscard]] double& at(std::size_t i, std::size_t k) noexcept { return w_[i * size_ + k]; }
  [[nodiscard]] double at(std::size_t i, std::size_t k) const noexcept {
    return w_[i * size_ + k];
  }

  std::size_t size_;
  double eps1_;  ///< rounding level of one step: eps * sqrt(n) * ||Op|| (<= 1)
  std::vector<double> w_;
};

/// Hits the "lanczos.certificate" fault site once per solve. True when an
/// `error`-mode fault fired there: the solver reports it as a failed
/// certificate (converged = false) rather than throwing out of the solve.
[[nodiscard]] bool certificate_fault_fired();

/// ||a - theta * b||, chunked like KrylovBasis.
[[nodiscard]] double chunked_distance(std::span<const double> a, double theta,
                                      std::span<const double> b);

template <WalkLikeOperator Op>
SpectrumResult run_lanczos(const Op& op, const LanczosOptions& options,
                           bool want_vector) {
  SOCMIX_TRACE_SPAN("lanczos.solve");
  SOCMIX_COUNTER_ADD("linalg.lanczos.solves", 1);
  const std::size_t n = op.dim();
  SpectrumResult result;
  if (n == 0) {
    SOCMIX_COUNTER_ADD("linalg.lanczos.unconverged", 1);
    return result;
  }
  if (n == 1) {
    // A single vertex is the trivial chain; SLEM is 0 by convention.
    result.converged = true;
    return result;
  }
  if (options.max_iterations < 3) {
    throw std::invalid_argument{"lanczos: max_iterations must be at least 3"};
  }

  // The deflated space has dimension n - 1; the certificate's two applies
  // come out of the same budget.
  const std::size_t m = std::min(kLanczosBasis, n - 1);
  const std::size_t budget = options.max_iterations - 2;
  KrylovBasis basis{op.top_eigenvector(), m};
  OrthogonalityEstimate omega{m + 1, n};
  const double semi_orthogonal = std::sqrt(std::numeric_limits<double>::epsilon());
  util::aligned_vector<double> w(n);
  std::vector<double> coeff;

  util::Rng rng{options.seed};
  randomize_unit(w, rng);
  const double start_norm = basis.orthogonalize(w, 0, coeff);
  if (start_norm == 0.0) {
    throw std::runtime_error{"lanczos: start vector vanished under deflation"};
  }
  basis.set_column(1, w, start_norm);

  // Projected matrix T = Q^T Op Q over columns 1..j (0-based here).
  DenseSym t;
  t.n = m;
  t.a.assign(m * m, 0.0);
  DenseEigen eig;
  std::size_t j = 1;  // column j holds the newest Lanczos vector
  std::size_t applies = 0;
  double beta = 0.0;  // norm of the residual after column j

  // Residual estimates |beta * s_last| of the extremal Ritz pairs of T_j.
  const auto extremal_residuals_ok = [&]() -> bool {
    const double res_top = std::fabs(beta * eig.vectors[(j - 1) * j + (j - 1)]);
    const double res_bot = std::fabs(beta * eig.vectors[0 * j + (j - 1)]);
    SOCMIX_GAUGE_SET("linalg.lanczos.residual_top", res_top);
    SOCMIX_GAUGE_SET("linalg.lanczos.residual_bottom", res_bot);
    return res_top <= options.tolerance && res_bot <= options.tolerance;
  };

  bool converged = false;
  bool full_pass_next = false;  // the pass after a triggered one, or after a restart
  while (true) {
    {
      SOCMIX_TRACE_SPAN("lanczos.apply");
      op.apply(basis.column(j), w);
    }
    ++applies;
    bool full_pass = full_pass_next;
    full_pass_next = false;
    double alpha = 0.0;
    if (!full_pass) {
      // The local step (CGS2 against the newest columns, the ω recurrence)
      // and the column write at the end of the step share one span name.
      SOCMIX_TRACE_SPAN("lanczos.local");
      beta = basis.orthogonalize_local(w, j, coeff);
      alpha = coeff.back();
      t.at(j - 1, j - 1) = alpha;
      // A breakdown gets a full pass too: the local residual then is
      // rounding noise in directions the local pass did not touch.
      if (!(beta > kLanczosBreakdown) || omega.advance(t, j - 1, beta) > semi_orthogonal) {
        full_pass = true;
        full_pass_next = true;
      }
    }
    if (full_pass) {
      SOCMIX_TRACE_SPAN("lanczos.reorth");
      ++result.full_reorthogonalizations;
      beta = basis.orthogonalize(w, j, coeff);
      alpha += coeff[j];
      omega.reset(j);
    }
    t.at(j - 1, j - 1) = alpha;

    // Invariant subspace reached (or the whole deflated space spanned):
    // the Ritz values are exact.
    const bool exhausted = beta <= kLanczosBreakdown || j == n - 1;
    const bool full = j == m;
    const bool spent = applies >= budget;
    if (applies % options.check_every == 0 || full || exhausted || spent) {
      SOCMIX_TRACE_SPAN("lanczos.eig");
      // A restart and the certificate need Ritz vectors; any other check
      // first asks the O(j^2) solver whether convergence is within reach.
      bool decide = full || exhausted || spent;
      if (!decide) {
        const ExtremalEigen cheap = extremal_eigen_last(t, j);
        const double band = kLanczosCheckGuard * options.tolerance;
        decide = !cheap.converged || (std::fabs(beta * cheap.max_last) <= band &&
                                      std::fabs(beta * cheap.min_last) <= band);
      }
      if (decide) {
        DenseSym leading;
        leading.n = j;
        leading.a.resize(j * j);
        for (std::size_t r = 0; r < j; ++r) {
          std::copy_n(t.a.begin() + static_cast<std::ptrdiff_t>(r * m), j,
                      leading.a.begin() + static_cast<std::ptrdiff_t>(r * j));
        }
        eig = jacobi_eigen(std::move(leading), /*want_vectors=*/true);
        ++result.jacobi_solves;
        if (exhausted || extremal_residuals_ok()) {
          converged = true;
          break;
        }
      }
    }
    if (spent) break;

    if (full) {
      // Thick restart: rotate onto the kLanczosKeep Ritz vectors at each
      // end, then continue from the residual. Ritz pair i couples to the
      // residual through s_i = beta * (last component of its vector).
      SOCMIX_TRACE_SPAN("lanczos.restart");
      SOCMIX_COUNTER_ADD("linalg.lanczos.restarts", 1);
      ++result.restarts;
      constexpr std::size_t k = 2 * kLanczosKeep;
      std::array<std::size_t, k> ritz_index{};
      std::vector<double> coeffs(k * m);
      std::vector<std::span<double>> kept(k);
      for (std::size_t c = 0; c < k; ++c) {
        ritz_index[c] = c < kLanczosKeep ? c : m - k + c;
        std::copy_n(eig.vectors.begin() + static_cast<std::ptrdiff_t>(ritz_index[c] * m), m,
                    coeffs.begin() + static_cast<std::ptrdiff_t>(c * m));
        kept[c] = basis.column(1 + c);
      }
      basis.combine(m, coeffs, kept);
      omega.restart(eig.vectors, m, ritz_index);
      std::fill(t.a.begin(), t.a.end(), 0.0);
      for (std::size_t c = 0; c < k; ++c) {
        const std::size_t idx = ritz_index[c];
        t.at(c, c) = eig.values[idx];
        t.at(c, k) = t.at(k, c) = beta * eig.vectors[idx * m + (m - 1)];
      }
      j = k + 1;
      basis.set_column(j, w, beta);
      full_pass_next = true;
      continue;
    }

    t.at(j - 1, j) = t.at(j, j - 1) = beta;
    {
      SOCMIX_TRACE_SPAN("lanczos.local");
      basis.set_column(j + 1, w, beta);
    }
    ++j;
  }

  // Certificate: explicit residuals of both extremal Ritz pairs.
  const double theta_top = eig.values.back();
  const double theta_bot = eig.values.front();
  std::vector<double> y_top(n);
  std::vector<double> y_bot(n);
  {
    std::vector<double> coeffs(2 * j);
    std::copy_n(eig.vectors.begin() + static_cast<std::ptrdiff_t>((j - 1) * j), j,
                coeffs.begin());
    std::copy_n(eig.vectors.begin(), j, coeffs.begin() + static_cast<std::ptrdiff_t>(j));
    const std::span<double> out[] = {y_top, y_bot};
    basis.combine(j, coeffs, out);
  }
  double certified = 0.0;
  for (auto [y, theta] : {std::pair{std::span<double>{y_top}, theta_top},
                          std::pair{std::span<double>{y_bot}, theta_bot}}) {
    const double norm = chunked_distance(y, 0.0, y);  // ||y||
    for (double& x : y) x /= norm;
    {
      SOCMIX_TRACE_SPAN("lanczos.apply");
      op.apply(y, w);
    }
    ++applies;
    certified = std::max(certified, chunked_distance(w, theta, y));
  }
  if (!(certified <= kLanczosCertificateSlack * options.tolerance)) converged = false;
  if (certificate_fault_fired()) converged = false;

  result.iterations = applies;
  result.converged = converged;
  // Added even when 0, so a metrics snapshot always carries it.
  SOCMIX_COUNTER_ADD("linalg.lanczos.unconverged", converged ? 0 : 1);
  SOCMIX_COUNTER_ADD("linalg.lanczos.jacobi_solves", result.jacobi_solves);
  SOCMIX_COUNTER_ADD("linalg.lanczos.full_reorthogonalizations",
                     result.full_reorthogonalizations);
  result.certified_residual = certified;
  SOCMIX_COUNTER_ADD("linalg.lanczos.iterations", applies);
  SOCMIX_GAUGE_SET("linalg.lanczos.last_iterations", applies);
  SOCMIX_GAUGE_SET("linalg.lanczos.certified_residual", certified);

  // Ritz values approximate the *deflated* operator's spectrum: its largest
  // is lambda_2 of the (possibly lazy) operator; map back to P's spectrum.
  const double laziness = op.laziness();
  const auto unmap = [laziness](double lam) { return (lam - laziness) / (1.0 - laziness); };
  result.lambda2 = unmap(theta_top);
  result.lambda_min = unmap(theta_bot);
  result.slem = std::clamp(std::max(result.lambda2, std::fabs(result.lambda_min)), 0.0, 1.0);
  if (want_vector) result.lambda2_vector = std::move(y_top);
  return result;
}

}  // namespace detail

/// Runs deflated Lanczos on `op` and returns the extremal spectrum.
template <WalkLikeOperator Op>
[[nodiscard]] SpectrumResult slem_spectrum(const Op& op,
                                           const LanczosOptions& options = {}) {
  return detail::run_lanczos(op, options, /*want_vector=*/false);
}

/// As slem_spectrum, but also reconstructs the Ritz vector for lambda_2.
template <WalkLikeOperator Op>
[[nodiscard]] SpectrumResult slem_spectrum_with_vector(
    const Op& op, const LanczosOptions& options = {}) {
  return detail::run_lanczos(op, options, /*want_vector=*/true);
}

}  // namespace socmix::linalg
