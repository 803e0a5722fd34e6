#include "linalg/lanczos.hpp"

#include <array>
#include <limits>
#include <numeric>

#include "linalg/simd/kernels.hpp"
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
      partial_(chunks_ * stride_),
      all_columns_(capacity + 1),
      h_(capacity + 1) {
  std::copy(deflate.begin(), deflate.end(), data_.begin());
  std::iota(all_columns_.begin(), all_columns_.end(), std::size_t{0});
}

double KrylovBasis::orthogonalize(std::span<double> w, std::size_t last,
                                  std::vector<double>& coeff) {
  return orthogonalize_columns(w, std::span{all_columns_}.first(last + 1), coeff);
}

double KrylovBasis::orthogonalize_local(std::span<double> w, std::size_t j,
                                        std::vector<double>& coeff) {
  const std::array<std::size_t, 3> local{0, j - 1, j};
  // For j = 1 the previous column is the deflation column itself.
  const std::span<const std::size_t> columns{local.data() + (j == 1 ? 1 : 0),
                                             local.data() + local.size()};
  return orthogonalize_columns(w, columns, coeff);
}

double KrylovBasis::orthogonalize_columns(std::span<double> w,
                                          std::span<const std::size_t> columns,
                                          std::vector<double>& coeff) {
  const simd::KernelTable& kernels = simd::dispatch();
  const std::size_t cols = columns.size();
  coeff.assign(cols, 0.0);
  std::vector<double>& h = h_;
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
      part[i] = kernels.dot_f64(data_.data() + columns[i] * n_ + lo, w.data() + lo, hi - lo);
    }
  };
  const auto subtract = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = 0; i < cols; ++i) {
      kernels.axpy_f64(-h[i], data_.data() + columns[i] * n_ + lo, w.data() + lo, hi - lo);
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
    partial_[c * stride_] = kernels.dot_f64(w.data() + lo, w.data() + lo, hi - lo);
  });
  reduce(1);
  return std::sqrt(h[0]);
}

void KrylovBasis::set_column(std::size_t j, std::span<const double> w, double norm) {
  const simd::DivideF64Fn divide = simd::dispatch().divide_f64;
  double* q = data_.data() + j * n_;
  for_chunks(n_, [&](std::size_t, std::size_t lo, std::size_t hi) {
    divide(w.data() + lo, norm, q + lo, hi - lo);
  });
}

void KrylovBasis::combine(std::size_t used, std::span<const double> coeffs,
                          std::span<const std::span<double>> out) {
  if (out.size() > simd::kMaxCombineOutputs) {
    throw std::invalid_argument{"KrylovBasis::combine: too many outputs"};
  }
  std::array<double*, simd::kMaxCombineOutputs> targets{};
  for (std::size_t c = 0; c < out.size(); ++c) targets[c] = out[c].data();
  const simd::CombineArgs args{.columns = data_.data() + n_,
                               .stride = n_,
                               .used = used,
                               .coeffs = coeffs.data(),
                               .out = targets.data(),
                               .outputs = out.size()};
  const simd::CombineF64Fn combine = simd::dispatch().combine_f64;
  for_chunks(n_, [&](std::size_t, std::size_t lo, std::size_t hi) { combine(args, lo, hi); });
}

OrthogonalityEstimate::OrthogonalityEstimate(std::size_t size, std::size_t n)
    : size_{size},
      eps1_{std::numeric_limits<double>::epsilon() * std::sqrt(static_cast<double>(n))},
      w_(size * size, 0.0) {
  for (std::size_t i = 0; i < size_; ++i) at(i, i) = 1.0;
}

double OrthogonalityEstimate::advance(const DenseSym& t, std::size_t p, double beta) {
  // From Op Q_p = Q_p T_p + beta q e_p^T and the symmetry of Op: for k < p,
  //   beta * q^T q_k = sum_i T(k, i) omega(i, p) - sum_i T(p, i) omega(i, k)
  // over i <= p, up to rounding. With T tridiagonal this is Simon's
  // three-term recurrence; after a thick restart it also carries the
  // arrowhead. The rounding term takes the sign of the estimate, so it can
  // only grow it (as in PROPACK).
  const std::size_t q = p + 1;
  double largest = 0.0;
  for (std::size_t k = 0; k < p; ++k) {
    double sum = 0.0;
    for (std::size_t i = 0; i <= p; ++i) sum += t.at(k, i) * at(i, p) - t.at(p, i) * at(i, k);
    const double estimate = (sum + std::copysign(eps1_, sum)) / beta;
    at(q, k) = at(k, q) = estimate;
    largest = std::max(largest, std::fabs(estimate));
  }
  // The local pass made q orthogonal to the two newest vectors itself.
  for (std::size_t k = p > 0 ? p - 1 : 0; k <= p; ++k) at(q, k) = at(k, q) = eps1_;
  return largest;
}

void OrthogonalityEstimate::reset(std::size_t q) {
  for (std::size_t k = 0; k < q; ++k) at(q, k) = at(k, q) = eps1_;
}

void OrthogonalityEstimate::restart(std::span<const double> vectors, std::size_t m,
                                    std::span<const std::size_t> kept) {
  // The residual's estimate against Ritz vector y = sum_i s_i q_i is
  // sum_i s_i omega(m, i), bounded here by sum_i |s_i| |omega(m, i)|. The
  // kept vectors' estimates among themselves are not needed: the first
  // step after a restart is a full pass, and later steps read only their
  // own rows and the residual's.
  const std::size_t k = kept.size();
  std::vector<double> residual(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < m; ++i) {
      residual[c] += std::fabs(vectors[kept[c] * m + i]) * std::fabs(at(m, i));
    }
  }
  std::fill(w_.begin(), w_.end(), eps1_);
  for (std::size_t i = 0; i < size_; ++i) at(i, i) = 1.0;
  for (std::size_t c = 0; c < k; ++c) at(k, c) = at(c, k) = residual[c];
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
