// Dense vector kernels for the spectral and walk-distribution machinery.
//
// These are the only floating-point primitives the eigensolvers need; they
// are kept free-standing (no vector class) so callers own their storage and
// can reuse buffers across iterations.
#pragma once

#include <span>
#include <vector>

#include "util/rng.hpp"

namespace socmix::linalg {

using Vec = std::vector<double>;

/// Euclidean dot product. Sizes must match.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b) noexcept;

/// Euclidean (L2) norm.
[[nodiscard]] double norm2(std::span<const double> a) noexcept;

/// L1 norm.
[[nodiscard]] double norm1(std::span<const double> a) noexcept;

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y) noexcept;

/// x *= alpha.
void scale(std::span<double> x, double alpha) noexcept;

/// Normalize x to unit L2 norm; returns the pre-normalization norm.
/// A zero vector is left unchanged and returns 0.
double normalize2(std::span<double> x) noexcept;

/// Total variation distance between two probability vectors:
/// 0.5 * ||a - b||_1. This is the distance in the paper's Definition 1.
[[nodiscard]] double total_variation(std::span<const double> a,
                                     std::span<const double> b) noexcept;

/// Fills x with unit-norm uniform random entries in [-1, 1).
void randomize_unit(std::span<double> x, util::Rng& rng);

}  // namespace socmix::linalg
