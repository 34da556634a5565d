// AVX-512 micro-kernels: the register tile (tile.h) on zmm.  Compiled with
// -mavx512f -ffp-contract=off regardless of the global target (see
// CMakeLists); only reachable through the registry when cpuid reports
// AVX-512F.

#include "src/gemm/kernels_arch.h"

#if defined(FMM_HAVE_AVX512_TU)

#include <immintrin.h>

#include "src/gemm/tile.h"

namespace fmm {
namespace detail {
namespace {

// The zmm operations one register tile needs, per element type.
template <typename T>
struct Zmm;

template <>
struct Zmm<double> {
  using Elem = double;
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
  static Mask mask(int n) { return static_cast<Mask>((1u << n) - 1u); }
};

template <>
struct Zmm<float> {
  using Elem = float;
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
  static Mask mask(int n) { return static_cast<Mask>((1u << n) - 1u); }
};

}  // namespace

template <typename T, int VPC, int NR>
void microkernel_avx512(index_t k, const T* a_panel, const T* b_panel,
                        T* acc) {
  Tile<Zmm<T>, VPC, NR>(k, a_panel, b_panel).store(acc);
}

template <typename T, int VPC, int NR>
void microkernel_avx512_update(index_t k, const T* a_panel, const T* b_panel,
                               const OutTermT<T>* targets, int num_targets,
                               index_t ldc, index_t m_sub, index_t n_sub,
                               bool accumulate) {
  Tile<Zmm<T>, VPC, NR>(k, a_panel, b_panel)
      .update(targets, num_targets, ldc, m_sub, n_sub, accumulate);
}

// Two zmm per column: 24 accumulators at NR = 12 (the default tiles), 12 at
// NR = 6 (for C rows the 12-wide tile pads more than 2x).
FMM_TILE_ENTRIES(microkernel_avx512, double, 2, 12)
FMM_TILE_ENTRIES(microkernel_avx512, double, 2, 6)
FMM_TILE_ENTRIES(microkernel_avx512, float, 2, 12)
FMM_TILE_ENTRIES(microkernel_avx512, float, 2, 6)

}  // namespace detail
}  // namespace fmm

#endif  // FMM_HAVE_AVX512_TU
