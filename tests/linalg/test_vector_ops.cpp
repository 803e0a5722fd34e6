#include "linalg/vector_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace socmix::linalg {
namespace {

TEST(VectorOps, Dot) {
  const Vec a{1, 2, 3};
  const Vec b{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 4 - 10 + 18);
  EXPECT_DOUBLE_EQ(dot(Vec{}, Vec{}), 0.0);
}

TEST(VectorOps, Norms) {
  const Vec a{3, -4};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm1(a), 7.0);
}

TEST(VectorOps, Axpy) {
  const Vec x{1, 2};
  Vec y{10, 20};
  axpy(3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

TEST(VectorOps, Scale) {
  Vec x{2, -4};
  scale(x, 0.5);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
}

TEST(VectorOps, Normalize2) {
  Vec x{3, 4};
  EXPECT_DOUBLE_EQ(normalize2(x), 5.0);
  EXPECT_DOUBLE_EQ(norm2(x), 1.0);
}

TEST(VectorOps, NormalizeZeroVectorIsNoop) {
  Vec x{0, 0};
  EXPECT_DOUBLE_EQ(normalize2(x), 0.0);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
}

TEST(TotalVariation, IdenticalDistributionsAreZero) {
  const Vec p{0.5, 0.3, 0.2};
  EXPECT_DOUBLE_EQ(total_variation(p, p), 0.0);
}

TEST(TotalVariation, DisjointDistributionsAreOne) {
  const Vec p{1, 0};
  const Vec q{0, 1};
  EXPECT_DOUBLE_EQ(total_variation(p, q), 1.0);
}

TEST(TotalVariation, KnownValue) {
  const Vec p{0.5, 0.5, 0.0};
  const Vec q{0.25, 0.25, 0.5};
  EXPECT_DOUBLE_EQ(total_variation(p, q), 0.5);
}

TEST(TotalVariation, SymmetricAndTriangular) {
  const Vec p{0.7, 0.2, 0.1};
  const Vec q{0.1, 0.6, 0.3};
  const Vec r{0.4, 0.4, 0.2};
  EXPECT_DOUBLE_EQ(total_variation(p, q), total_variation(q, p));
  EXPECT_LE(total_variation(p, q),
            total_variation(p, r) + total_variation(r, q) + 1e-15);
}

TEST(RandomizeUnit, ProducesUnitVector) {
  util::Rng rng{1};
  Vec x(100);
  randomize_unit(x, rng);
  EXPECT_NEAR(norm2(x), 1.0, 1e-12);
}

}  // namespace
}  // namespace socmix::linalg
