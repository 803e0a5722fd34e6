#include "linalg/vector_ops.hpp"

#include <cmath>

namespace socmix::linalg {

double dot(std::span<const double> a, std::span<const double> b) noexcept {
  double sum = 0.0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(std::span<const double> a) noexcept { return std::sqrt(dot(a, a)); }

double norm1(std::span<const double> a) noexcept {
  double sum = 0.0;
  for (const double x : a) sum += std::fabs(x);
  return sum;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) noexcept {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(std::span<double> x, double alpha) noexcept {
  for (double& v : x) v *= alpha;
}

double normalize2(std::span<double> x) noexcept {
  const double n = norm2(x);
  if (n > 0.0) scale(x, 1.0 / n);
  return n;
}

double total_variation(std::span<const double> a, std::span<const double> b) noexcept {
  double sum = 0.0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) sum += std::fabs(a[i] - b[i]);
  return 0.5 * sum;
}

void randomize_unit(std::span<double> x, util::Rng& rng) {
  for (double& v : x) v = 2.0 * rng.uniform() - 1.0;
  if (normalize2(x) == 0.0 && !x.empty()) {
    x[0] = 1.0;  // astronomically unlikely, but keep the contract
  }
}

}  // namespace socmix::linalg
