#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace socmix::linalg {

DenseSym dense_walk_matrix(const graph::Graph& g, double laziness) {
  const std::size_t n = g.num_nodes();
  DenseSym m;
  m.n = n;
  m.a.assign(n * n, 0.0);
  std::vector<double> inv_sqrt_deg(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto d = g.degree(v);
    if (d == 0) throw std::invalid_argument{"dense_walk_matrix: isolated vertex"};
    inv_sqrt_deg[v] = 1.0 / std::sqrt(static_cast<double>(d));
  }
  for (graph::NodeId u = 0; u < n; ++u) {
    for (const graph::NodeId v : g.neighbors(u)) {
      m.at(u, v) = (1.0 - laziness) * inv_sqrt_deg[u] * inv_sqrt_deg[v];
    }
    m.at(u, u) += laziness;
  }
  return m;
}

std::vector<double> dense_transition_matrix(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<double> p(n * n, 0.0);
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto d = g.degree(u);
    if (d == 0) continue;
    const double w = 1.0 / static_cast<double>(d);
    for (const graph::NodeId v : g.neighbors(u)) p[u * n + v] = w;
  }
  return p;
}

DenseEigen jacobi_eigen(DenseSym m, bool want_vectors, int max_sweeps) {
  const std::size_t n = m.n;
  DenseEigen out;
  if (n == 0) return out;

  // v accumulates the rotations, stored transposed: row k is the
  // eigenvector of diagonal k, so each rotation updates two contiguous rows.
  std::vector<double> v;
  if (want_vectors) {
    v.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;
  }

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) off += m.at(i, j) * m.at(i, j);
    if (off < 1e-24) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m.at(p, q);
        if (std::fabs(apq) < 1e-18) continue;
        const double app = m.at(p, p);
        const double aqq = m.at(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(1.0, theta) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply rotation J(p,q,theta) on both sides.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = m.at(k, p);
          const double akq = m.at(k, q);
          m.at(k, p) = c * akp - s * akq;
          m.at(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = m.at(p, k);
          const double aqk = m.at(q, k);
          m.at(p, k) = c * apk - s * aqk;
          m.at(q, k) = s * apk + c * aqk;
        }
        if (want_vectors) {
          double* vp = v.data() + p * n;
          double* vq = v.data() + q * n;
          for (std::size_t k = 0; k < n; ++k) {
            const double vkp = vp[k];
            const double vkq = vq[k];
            vp[k] = c * vkp - s * vkq;
            vq[k] = s * vkp + c * vkq;
          }
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&m](std::size_t a, std::size_t b) { return m.at(a, a) < m.at(b, b); });
  out.values.resize(n);
  for (std::size_t k = 0; k < n; ++k) out.values[k] = m.at(order[k], order[k]);
  if (want_vectors) {
    out.vectors.resize(n * n);
    for (std::size_t k = 0; k < n; ++k) {
      std::copy_n(v.begin() + static_cast<std::ptrdiff_t>(order[k] * n), n,
                  out.vectors.begin() + static_cast<std::ptrdiff_t>(k * n));
    }
  }
  return out;
}

ExtremalEigen extremal_eigen_last(const DenseSym& m, std::size_t size) {
  ExtremalEigen out;
  if (size == 0) return out;
  // Diagonal d and off-diagonal e (e[i] couples i and i + 1) of the
  // tridiagonal form.
  std::vector<double> d(size);
  std::vector<double> e(size, 0.0);
  std::vector<double> a(size * size);
  for (std::size_t r = 0; r < size; ++r) {
    std::copy_n(m.a.begin() + static_cast<std::ptrdiff_t>(r * m.n), size,
                a.begin() + static_cast<std::ptrdiff_t>(r * size));
  }
  const auto at = [&a, size](std::size_t r, std::size_t c) -> double& {
    return a[r * size + c];
  };

  // Householder from the bottom: the reflector of column i zeroes rows
  // 0..i-2 of it and acts on indices 0..i-1 only.
  std::vector<double> v(size);
  std::vector<double> p(size);
  for (std::size_t i = size - 1; i > 0; --i) {
    double scale = 0.0;
    for (std::size_t r = 0; r + 1 < i; ++r) scale = std::max(scale, std::fabs(at(r, i)));
    if (scale == 0.0) {
      e[i - 1] = at(i - 1, i);
      d[i] = at(i, i);
      continue;
    }
    // Scaled against overflow and underflow of the squares.
    double xnorm2 = 0.0;
    for (std::size_t r = 0; r + 1 < i; ++r) {
      const double x = at(r, i) / scale;
      xnorm2 += x * x;
    }
    const double alpha = at(i - 1, i);
    const double beta =
        -std::copysign(scale * std::sqrt(xnorm2 + (alpha / scale) * (alpha / scale)), alpha);
    const double tau = (beta - alpha) / beta;
    for (std::size_t r = 0; r + 1 < i; ++r) v[r] = at(r, i) / (alpha - beta);
    v[i - 1] = 1.0;
    // A <- H A H with H = I - tau v v^T, as a symmetric rank-2 update:
    // p = tau A v, w = p - (tau / 2)(p^T v) v, A <- A - v w^T - w v^T.
    double pv = 0.0;
    for (std::size_t r = 0; r < i; ++r) {
      double sum = 0.0;
      for (std::size_t c = 0; c < i; ++c) sum += at(r, c) * v[c];
      p[r] = tau * sum;
      pv += p[r] * v[r];
    }
    const double k = -0.5 * tau * pv;
    for (std::size_t r = 0; r < i; ++r) p[r] += k * v[r];
    for (std::size_t r = 0; r < i; ++r) {
      for (std::size_t c = 0; c < i; ++c) at(r, c) -= v[r] * p[c] + p[r] * v[c];
    }
    e[i - 1] = beta;
    d[i] = at(i, i);
  }
  d[0] = at(0, 0);

  // sqrt(a^2 + b^2) without destructive overflow or underflow; cheaper
  // than std::hypot, whose last-bit exactness a check does not need.
  const auto pythag = [](double a, double b) {
    const double fa = std::fabs(a);
    const double fb = std::fabs(b);
    if (fa > fb) return fa * std::sqrt(1.0 + (fb / fa) * (fb / fa));
    return fb == 0.0 ? 0.0 : fb * std::sqrt(1.0 + (fa / fb) * (fa / fb));
  };

  // Implicit QL with Wilkinson shifts (EISPACK tql2), rotating only z, the
  // last row of the eigenvector matrix: z[i] is the last component of the
  // eigenvector of d[i].
  std::vector<double>& z = v;
  std::fill(z.begin(), z.end(), 0.0);
  z[size - 1] = 1.0;
  const auto n = static_cast<std::ptrdiff_t>(size);
  constexpr int kMaxSteps = 30;  // per eigenvalue
  for (std::ptrdiff_t l = 0; l < n; ++l) {
    int steps = 0;
    while (true) {
      std::ptrdiff_t mm = l;
      for (; mm < n - 1; ++mm) {
        const double dd = std::fabs(d[mm]) + std::fabs(d[mm + 1]);
        if (std::fabs(e[mm]) + dd == dd) break;
      }
      if (mm == l) break;
      if (++steps > kMaxSteps) return out;
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = pythag(g, 1.0);
      g = d[mm] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double shift = 0.0;
      bool underflow = false;
      for (std::ptrdiff_t i = mm - 1; i >= l; --i) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = pythag(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Deflate: the rotation chain met an exact zero.
          d[i + 1] -= shift;
          e[mm] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - shift;
        r = (d[i] - g) * s + 2.0 * c * b;
        shift = s * r;
        d[i + 1] = g + shift;
        g = c * r - b;
        const double zi1 = z[i + 1];
        z[i + 1] = s * z[i] + c * zi1;
        z[i] = c * z[i] - s * zi1;
      }
      if (underflow) continue;
      d[l] -= shift;
      e[l] = g;
      e[mm] = 0.0;
    }
  }

  const auto [lo, hi] = std::minmax_element(d.begin(), d.end());
  out.min_value = *lo;
  out.max_value = *hi;
  out.min_last = z[static_cast<std::size_t>(lo - d.begin())];
  out.max_last = z[static_cast<std::size_t>(hi - d.begin())];
  out.converged = true;
  return out;
}

std::vector<double> jacobi_eigenvalues(DenseSym m, int max_sweeps) {
  return jacobi_eigen(std::move(m), /*want_vectors=*/false, max_sweeps).values;
}

double dense_slem(const graph::Graph& g) {
  const auto values = jacobi_eigenvalues(dense_walk_matrix(g));
  if (values.size() < 2) return 0.0;
  const double lambda2 = values[values.size() - 2];
  const double lambda_min = values.front();
  return std::clamp(std::max(lambda2, std::fabs(lambda_min)), 0.0, 1.0);
}

}  // namespace socmix::linalg
