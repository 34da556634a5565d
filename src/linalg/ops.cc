#include "src/linalg/ops.h"

#include <cassert>
#include <cmath>

namespace fmm {

double max_abs_diff(ConstMatView a, ConstMatView b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double worst = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* pa = a.row(i);
    const double* pb = b.row(i);
    for (index_t j = 0; j < a.cols(); ++j) {
      double d = std::fabs(pa[j] - pb[j]);
      if (d > worst) worst = d;
    }
  }
  return worst;
}

double max_abs_diff(ConstMatViewF32 a, ConstMatViewF32 b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double worst = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const float* pa = a.row(i);
    const float* pb = b.row(i);
    for (index_t j = 0; j < a.cols(); ++j) {
      double d = std::fabs(static_cast<double>(pa[j]) - pb[j]);
      if (d > worst) worst = d;
    }
  }
  return worst;
}

double max_abs(ConstMatView a) {
  double worst = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* pa = a.row(i);
    for (index_t j = 0; j < a.cols(); ++j) {
      double d = std::fabs(pa[j]);
      if (d > worst) worst = d;
    }
  }
  return worst;
}

double rel_error_fro(ConstMatView a, ConstMatView b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double num = 0.0, den = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* pa = a.row(i);
    const double* pb = b.row(i);
    for (index_t j = 0; j < a.cols(); ++j) {
      double d = pa[j] - pb[j];
      num += d * d;
      den += pb[j] * pb[j];
    }
  }
  return std::sqrt(num) / std::sqrt(den > 1e-300 ? den : 1e-300);
}

bool solve_spd_inplace(std::vector<double>& gram, int n,
                       std::vector<double>& rhs, int nrhs) {
  assert(static_cast<int>(gram.size()) >= n * n);
  assert(static_cast<int>(rhs.size()) >= n * nrhs);
  // Diagonal jitter proportional to the largest diagonal entry keeps the
  // factorization alive on the rank-deficient Grams ALS produces early on.
  double dmax = 0.0;
  for (int i = 0; i < n; ++i) dmax = std::max(dmax, std::fabs(gram[i * n + i]));
  const double jitter = (dmax > 0 ? dmax : 1.0) * 1e-12;
  for (int i = 0; i < n; ++i) gram[i * n + i] += jitter;

  // In-place lower Cholesky: gram = L * L^T.
  for (int j = 0; j < n; ++j) {
    double d = gram[j * n + j];
    for (int p = 0; p < j; ++p) d -= gram[j * n + p] * gram[j * n + p];
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    gram[j * n + j] = ljj;
    for (int i = j + 1; i < n; ++i) {
      double s = gram[i * n + j];
      for (int p = 0; p < j; ++p) s -= gram[i * n + p] * gram[j * n + p];
      gram[i * n + j] = s / ljj;
    }
  }
  // Forward substitution L y = rhs, then back substitution L^T x = y.
  for (int c = 0; c < nrhs; ++c) {
    for (int i = 0; i < n; ++i) {
      double s = rhs[i * nrhs + c];
      for (int p = 0; p < i; ++p) s -= gram[i * n + p] * rhs[p * nrhs + c];
      rhs[i * nrhs + c] = s / gram[i * n + i];
    }
    for (int i = n - 1; i >= 0; --i) {
      double s = rhs[i * nrhs + c];
      for (int p = i + 1; p < n; ++p) s -= gram[p * n + i] * rhs[p * nrhs + c];
      rhs[i * nrhs + c] = s / gram[i * n + i];
    }
  }
  return true;
}

}  // namespace fmm
