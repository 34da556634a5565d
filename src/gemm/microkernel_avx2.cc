// AVX2/FMA micro-kernels: the register tile (tile.h) on ymm.  Compiled
// with -mavx2 -mfma -ffp-contract=off regardless of the global target (see
// CMakeLists); nothing here may be called unless cpuid reports AVX2+FMA —
// the registry entries guard with cpu_has_avx2_fma().

#include "src/gemm/kernels_arch.h"

#if defined(FMM_HAVE_AVX2_TU)

#include <immintrin.h>

#include "src/gemm/tile.h"

namespace fmm {
namespace detail {
namespace {

// The ymm operations one register tile needs, per element type.  AVX2 has
// no mask registers: an edge tile's lanes are an all-ones element mask for
// maskload/maskstore.
template <typename T>
struct Ymm;

template <>
struct Ymm<double> {
  using Elem = double;
  using V = __m256d;
  using Mask = __m256i;
  static constexpr int kLanes = 4;
  static V zero() { return _mm256_setzero_pd(); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static V load(Mask m, const double* p) { return _mm256_maskload_pd(p, m); }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static void store(double* p, Mask m, V v) { _mm256_maskstore_pd(p, m, v); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static Mask mask(int n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
};

template <>
struct Ymm<float> {
  using Elem = float;
  using V = __m256;
  using Mask = __m256i;
  static constexpr int kLanes = 8;
  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static V load(Mask m, const float* p) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, Mask m, V v) { _mm256_maskstore_ps(p, m, v); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static Mask mask(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
};

}  // namespace

template <typename T, int VPC, int NR>
void microkernel_avx2(index_t k, const T* a_panel, const T* b_panel, T* acc) {
  Tile<Ymm<T>, VPC, NR>(k, a_panel, b_panel).store(acc);
}

template <typename T, int VPC, int NR>
void microkernel_avx2_update(index_t k, const T* a_panel, const T* b_panel,
                             const OutTermT<T>* targets, int num_targets,
                             index_t ldc, index_t m_sub, index_t n_sub,
                             bool accumulate) {
  Tile<Ymm<T>, VPC, NR>(k, a_panel, b_panel)
      .update(targets, num_targets, ldc, m_sub, n_sub, accumulate);
}

// 8x6 f64 and 16x6 f32: two ymm by 6, the classic 12-accumulator layout
// for 16-register AVX2.  4x12 f64: one ymm by 12, the same 12 accumulators
// in a thinner tile (less row padding on short submatrices, one load per 6
// FMAs instead of 12).
FMM_TILE_ENTRIES(microkernel_avx2, double, 2, 6)
FMM_TILE_ENTRIES(microkernel_avx2, double, 1, 12)
FMM_TILE_ENTRIES(microkernel_avx2, float, 2, 6)

}  // namespace detail
}  // namespace fmm

#endif  // FMM_HAVE_AVX2_TU
