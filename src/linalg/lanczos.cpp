#include "linalg/lanczos.hpp"

#include "resilience/fault.hpp"
#include "util/parallel.hpp"

namespace socmix::linalg {

namespace detail {
namespace {

/// Runs body(chunk, lo, hi) over the kLanczosRowChunk-row chunks of [0, n)
/// on the global pool. Chunk boundaries depend on n alone.
template <typename Body>
void for_chunks(std::size_t n, const Body& body) {
  const std::size_t chunks = (n + kLanczosRowChunk - 1) / kLanczosRowChunk;
  util::parallel_for(0, chunks, 1, [&](std::size_t first, std::size_t last) {
    for (std::size_t c = first; c < last; ++c) {
      body(c, c * kLanczosRowChunk, std::min(n, (c + 1) * kLanczosRowChunk));
    }
  });
}

/// Dot product of one chunk with eight independent accumulators, so the
/// adds do not form one serial dependency chain.
double chunk_dot(const double* a, const double* b, std::size_t len) noexcept {
  double s[8] = {};
  std::size_t r = 0;
  for (; r + 8 <= len; r += 8) {
    for (std::size_t u = 0; u < 8; ++u) s[u] += a[r + u] * b[r + u];
  }
  for (; r < len; ++r) s[0] += a[r] * b[r];
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void chunk_axpy(double alpha, const double* x, double* y, std::size_t len) noexcept {
  for (std::size_t r = 0; r < len; ++r) y[r] += alpha * x[r];
}

}  // namespace

bool certificate_fault_fired() {
  try {
    resilience::fault_point("lanczos.certificate");
  } catch (const resilience::InjectedFault&) {
    return true;
  }
  return false;
}

KrylovBasis::KrylovBasis(std::span<const double> deflate, std::size_t capacity)
    : n_{deflate.size()},
      chunks_{(n_ + kLanczosRowChunk - 1) / kLanczosRowChunk},
      stride_{capacity + 1},
      data_((capacity + 1) * n_),
      partial_(chunks_ * stride_) {
  std::copy(deflate.begin(), deflate.end(), data_.begin());
}

double KrylovBasis::orthogonalize(std::span<double> w, std::size_t last,
                                  std::vector<double>& coeff) {
  const std::size_t cols = last + 1;
  coeff.assign(cols, 0.0);
  std::vector<double> h(cols, 0.0);
  // Sums the per-chunk partials [0, width) in chunk order into h.
  const auto reduce = [&](std::size_t width) {
    std::fill(h.begin(), h.begin() + static_cast<std::ptrdiff_t>(width), 0.0);
    for (std::size_t c = 0; c < chunks_; ++c) {
      const double* part = partial_.data() + c * stride_;
      for (std::size_t i = 0; i < width; ++i) h[i] += part[i];
    }
  };
  const auto dots = [&](std::size_t c, std::size_t lo, std::size_t hi) {
    double* part = partial_.data() + c * stride_;
    for (std::size_t i = 0; i < cols; ++i) {
      part[i] = chunk_dot(data_.data() + i * n_ + lo, w.data() + lo, hi - lo);
    }
  };
  const auto subtract = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = 0; i < cols; ++i) {
      chunk_axpy(-h[i], data_.data() + i * n_ + lo, w.data() + lo, hi - lo);
    }
  };

  // Pass 1 projections; pass 1 subtraction fused with pass 2 projections
  // while the chunk is cache-resident; pass 2 subtraction fused with the
  // norm.
  for_chunks(n_, [&](std::size_t c, std::size_t lo, std::size_t hi) { dots(c, lo, hi); });
  reduce(cols);
  for (std::size_t i = 0; i < cols; ++i) coeff[i] += h[i];
  for_chunks(n_, [&](std::size_t c, std::size_t lo, std::size_t hi) {
    subtract(lo, hi);
    dots(c, lo, hi);
  });
  reduce(cols);
  for (std::size_t i = 0; i < cols; ++i) coeff[i] += h[i];
  for_chunks(n_, [&](std::size_t c, std::size_t lo, std::size_t hi) {
    subtract(lo, hi);
    partial_[c * stride_] = chunk_dot(w.data() + lo, w.data() + lo, hi - lo);
  });
  reduce(1);
  return std::sqrt(h[0]);
}

void KrylovBasis::set_column(std::size_t j, std::span<const double> w, double norm) {
  double* q = data_.data() + j * n_;
  for_chunks(n_, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) q[r] = w[r] / norm;
  });
}

void KrylovBasis::combine(std::size_t used, std::span<const double> coeffs,
                          std::span<const std::span<double>> out) {
  const std::size_t k = out.size();
  for_chunks(n_, [&](std::size_t, std::size_t lo, std::size_t hi) {
    const std::size_t len = hi - lo;
    std::vector<double> acc(k * len, 0.0);
    for (std::size_t i = 0; i < used; ++i) {
      const double* q = data_.data() + (1 + i) * n_ + lo;
      for (std::size_t c = 0; c < k; ++c) {
        chunk_axpy(coeffs[c * used + i], q, acc.data() + c * len, len);
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      std::copy_n(acc.data() + c * len, len, out[c].data() + lo);
    }
  });
}

double chunked_distance(std::span<const double> a, double theta, std::span<const double> b) {
  const std::size_t n = a.size();
  std::vector<double> partial((n + kLanczosRowChunk - 1) / kLanczosRowChunk);
  for_chunks(n, [&](std::size_t c, std::size_t lo, std::size_t hi) {
    double sum = 0.0;
    for (std::size_t r = lo; r < hi; ++r) {
      const double d = a[r] - theta * b[r];
      sum += d * d;
    }
    partial[c] = sum;
  });
  double total = 0.0;
  for (const double p : partial) total += p;
  return std::sqrt(total);
}

}  // namespace detail

// Explicit instantiation for WalkOperator keeps its code out of every
// including translation unit.

template SpectrumResult slem_spectrum<WalkOperator>(const WalkOperator&,
                                                    const LanczosOptions&);
template SpectrumResult slem_spectrum_with_vector<WalkOperator>(const WalkOperator&,
                                                                const LanczosOptions&);

}  // namespace socmix::linalg
