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

  // v accumulates the rotations: column k is the eigenvector of diagonal k.
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
          for (std::size_t k = 0; k < n; ++k) {
            const double vkp = v[k * n + p];
            const double vkq = v[k * n + q];
            v[k * n + p] = c * vkp - s * vkq;
            v[k * n + q] = s * vkp + c * vkq;
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
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t i = 0; i < n; ++i) out.vectors[k * n + i] = v[i * n + order[k]];
  }
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
