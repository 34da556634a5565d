#pragma once

// Freivalds result check: C·x against A·(B·x) for a seeded sign vector x.
//
// Cost is O(mk + kn + mn), so every request can be checked outside the
// timed window even at n = 4096.  Row i passes when
//
//   |(C x)_i - (A (B x))_i| <= gamma * (|A| (|B| |x|))_i
//
// where gamma grows with k, the element type's epsilon, and the plan's
// level count (each fast-algorithm level adds coefficient growth to the
// forward error; 4x per level is a loose bound for the catalog's
// coefficients), plus the double-precision error of the check itself.
// x_j = ±1, so a single wrong element of C moves (C x)_i by its full error.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/linalg/mat_view.h"
#include "src/util/prng.h"

namespace perfbench {

// The tolerance factor gamma for one product.
template <typename T>
double freivalds_gamma(fmm::index_t n, fmm::index_t k, int levels) {
  const double eps_t = std::numeric_limits<T>::epsilon();
  const double eps_d = std::numeric_limits<double>::epsilon();
  const double growth = std::pow(4.0, levels);
  return 4.0 * eps_t * static_cast<double>(k + 1) * growth +
         4.0 * eps_d * static_cast<double>(n + k);
}

// sum_j v[j] w[j] and sum_j |v[j]| wabs[j] (skipped when wabs is null) in
// double.  The sums run in kLanes interleaved partial sums: one chain
// waits on every add, and a serving run checks tens of thousands of
// products per process.
template <typename T>
void dot_abs(const T* v, const double* w, const double* wabs, fmm::index_t len,
             double* dot, double* dot_abs) {
  constexpr int kLanes = 8;
  double s[kLanes] = {}, sa[kLanes] = {};
  fmm::index_t j = 0;
  for (; j + kLanes <= len; j += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] += static_cast<double>(v[j + l]) * w[j + l];
    if (wabs != nullptr) {
      for (int l = 0; l < kLanes; ++l) {
        sa[l] += std::fabs(static_cast<double>(v[j + l])) * wabs[j + l];
      }
    }
  }
  for (; j < len; ++j) {
    s[0] += static_cast<double>(v[j]) * w[j];
    if (wabs != nullptr) sa[0] += std::fabs(static_cast<double>(v[j])) * wabs[j];
  }
  double total = 0.0, total_abs = 0.0;
  for (int l = 0; l < kLanes; ++l) {
    total += s[l];
    total_abs += sa[l];
  }
  *dot = total;
  if (dot_abs != nullptr) *dot_abs = total_abs;
}

// The worst row's |error| / tolerance: <= 1 passes.  A non-finite C or
// product gives +inf.
template <typename T>
double freivalds_ratio(fmm::ConstMatViewT<T> c, fmm::ConstMatViewT<T> a,
                       fmm::ConstMatViewT<T> b, int levels,
                       std::uint64_t seed) {
  const fmm::index_t m = c.rows(), n = c.cols(), k = a.cols();
  fmm::Xoshiro256 rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = (rng.next_u64() >> 63) != 0 ? 1.0 : -1.0;
  const std::vector<double> xabs(static_cast<std::size_t>(n), 1.0);

  std::vector<double> bx(static_cast<std::size_t>(k));
  std::vector<double> babs(static_cast<std::size_t>(k));
#pragma omp parallel for schedule(static) if (k * n > (1 << 18))
  for (fmm::index_t p = 0; p < k; ++p) {
    dot_abs(b.row(p), x.data(), xabs.data(), n, &bx[static_cast<std::size_t>(p)],
            &babs[static_cast<std::size_t>(p)]);
  }

  const double gamma = freivalds_gamma<T>(n, k, levels);
  double worst = 0.0;
#pragma omp parallel for schedule(static) reduction(max : worst) if (m * (n + k) > (1 << 18))
  for (fmm::index_t i = 0; i < m; ++i) {
    double y = 0.0, yabs = 0.0, z = 0.0;
    dot_abs(a.row(i), bx.data(), babs.data(), k, &y, &yabs);
    dot_abs(c.row(i), x.data(), static_cast<const double*>(nullptr), n, &z,
            static_cast<double*>(nullptr));
    const double diff = std::fabs(z - y);
    const double tol = gamma * yabs + std::numeric_limits<double>::min();
    const double r = std::isfinite(diff) ? diff / tol
                                         : std::numeric_limits<double>::infinity();
    if (r > worst) worst = r;
  }
  return worst;
}

}  // namespace perfbench
