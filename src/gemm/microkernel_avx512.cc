// AVX-512 micro-kernels.  Compiled with -mavx512f -ffp-contract=off
// regardless of the global target (see CMakeLists); only reachable through
// the registry when cpuid reports AVX-512F.

#include "src/gemm/kernels_arch.h"

#if defined(FMM_HAVE_AVX512_TU)

#include <immintrin.h>

namespace fmm {
namespace detail {
namespace {

// The zmm operations one register tile needs, per element type.
template <typename T>
struct Zmm;

template <>
struct Zmm<double> {
  using V = __m512d;
  using Mask = __mmask8;
  static constexpr int kLanes = 8;
  static V zero() { return _mm512_setzero_pd(); }
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V load(const double* p) { return _mm512_loadu_pd(p); }
  static V load(Mask m, const double* p) { return _mm512_maskz_loadu_pd(m, p); }
  static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static void store(double* p, Mask m, V v) { _mm512_mask_storeu_pd(p, m, v); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
};

template <>
struct Zmm<float> {
  using V = __m512;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  static V zero() { return _mm512_setzero_ps(); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static V load(Mask m, const float* p) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, Mask m, V v) { _mm512_mask_storeu_ps(p, m, v); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
};

// An (2 zmm) x NR register tile: each of the NR columns is two vectors of
// the mR-panel, so every k step is two loads, NR broadcasts and 2 NR FMAs
// into 2 NR independent accumulator chains (24 at NR = 12, enough to hide
// the FMA latency without a second bank).  Each element sums its k
// products in order.
template <typename T, int NR>
struct Tile {
  using Z = Zmm<T>;
  using V = typename Z::V;
  static constexpr int kL = Z::kLanes;
  static constexpr int kMR = 2 * kL;

  V c[NR][2];

  Tile(index_t k, const T* a, const T* b) {
#pragma GCC unroll 16
    for (int j = 0; j < NR; ++j) c[j][0] = c[j][1] = Z::zero();
    for (index_t kk = 0; kk < k; ++kk) {
      const V a0 = Z::load(a);
      const V a1 = Z::load(a + kL);
#pragma GCC unroll 16
      for (int j = 0; j < NR; ++j) {
        const V bj = Z::set1(b[j]);
        c[j][0] = Z::fmadd(a0, bj, c[j][0]);
        c[j][1] = Z::fmadd(a1, bj, c[j][1]);
      }
      a += kMR;
      b += NR;
    }
  }

  // acc[j * mR + r]: the column-major block of the kernel contract.
  void store(T* acc) const {
#pragma GCC unroll 16
    for (int j = 0; j < NR; ++j) {
      Z::store(acc + j * kMR, c[j][0]);
      Z::store(acc + j * kMR + kL, c[j][1]);
    }
  }

  // epilogue_update at (rs, cs) = (1, ldc), straight from the registers:
  // column j of the tile is the first m_sub elements of C row j of every
  // target, for j < n_sub.  Each element is w * acc, rounded, then added
  // to C (the TU builds with -ffp-contract=off, so no FMA fuses the two),
  // which is the scalar epilogue's arithmetic bit for bit.  An edge tile
  // (m_sub < mR) reads and writes its rows through lane masks.
  void update(const OutTermT<T>* targets, int num_targets, index_t ldc,
              index_t m_sub, index_t n_sub, bool accumulate) const {
    const bool full = m_sub == kMR;
    const auto lanes = [](index_t n) {
      const index_t m = n < 0 ? 0 : (n > kL ? kL : n);
      return static_cast<typename Z::Mask>((1u << m) - 1u);
    };
    const typename Z::Mask m0 = lanes(m_sub), m1 = lanes(m_sub - kL);
    for (int t = 0; t < num_targets; ++t) {
      const V w = Z::set1(static_cast<T>(targets[t].coeff));
      T* row = targets[t].ptr;
#pragma GCC unroll 16
      for (int j = 0; j < NR; ++j) {
        if (j >= n_sub) break;
        V v0 = Z::mul(w, c[j][0]);
        V v1 = Z::mul(w, c[j][1]);
        if (full) {
          if (accumulate) {
            v0 = Z::add(Z::load(row), v0);
            v1 = Z::add(Z::load(row + kL), v1);
          }
          Z::store(row, v0);
          Z::store(row + kL, v1);
        } else {
          if (accumulate) {
            v0 = Z::add(Z::load(m0, row), v0);
            v1 = Z::add(Z::load(m1, row + kL), v1);
          }
          Z::store(row, m0, v0);
          Z::store(row + kL, m1, v1);
        }
        row += ldc;
      }
    }
  }
};

}  // namespace

template <typename T, int NR>
void microkernel_avx512(index_t k, const T* a_panel, const T* b_panel,
                        T* acc) {
  Tile<T, NR>(k, a_panel, b_panel).store(acc);
}

template <typename T, int NR>
void microkernel_avx512_update(index_t k, const T* a_panel, const T* b_panel,
                               const OutTermT<T>* targets, int num_targets,
                               index_t ldc, index_t m_sub, index_t n_sub,
                               bool accumulate) {
  Tile<T, NR>(k, a_panel, b_panel)
      .update(targets, num_targets, ldc, m_sub, n_sub, accumulate);
}

#define FMM_AVX512_TILE(T, NR)                                              \
  template void microkernel_avx512<T, NR>(index_t, const T*, const T*, T*); \
  template void microkernel_avx512_update<T, NR>(                           \
      index_t, const T*, const T*, const OutTermT<T>*, int, index_t,        \
      index_t, index_t, bool);
FMM_AVX512_TILE(double, 12)
FMM_AVX512_TILE(double, 6)
FMM_AVX512_TILE(float, 12)
FMM_AVX512_TILE(float, 6)
#undef FMM_AVX512_TILE

}  // namespace detail
}  // namespace fmm

#endif  // FMM_HAVE_AVX512_TU
