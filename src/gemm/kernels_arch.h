#pragma once

// Internal declarations of the ISA-specific micro-kernels.  Each family
// lives in its own translation unit compiled with the matching target
// flags (see CMakeLists: microkernel_avx2.cc gets -mavx2 -mfma, etc.), so
// a baseline x86-64 build still ships the vector kernels and picks them at
// runtime via cpuid.  The FMM_HAVE_*_TU macros are defined for the whole
// fmm target when the compiler supports the flags.

#include "src/gemm/term.h"
#include "src/linalg/mat_view.h"

namespace fmm {
namespace detail {

#if defined(FMM_HAVE_AVX2_TU)
void microkernel_avx2_8x6(index_t k, const double* a_panel,
                          const double* b_panel, double* acc);
void microkernel_avx2_4x12(index_t k, const double* a_panel,
                           const double* b_panel, double* acc);
void microkernel_avx2_16x6_f32(index_t k, const float* a_panel,
                               const float* b_panel, float* acc);
#endif

#if defined(FMM_HAVE_AVX512_TU)
// One register-tile template: a 2-zmm-tall mR (16 f64, 32 f32) by NR tile,
// instantiated at NR = 12 (the default tile) and NR = 6 (for C rows the
// 12-wide tile pads more than 2x).  Each has the plain kernel entry and
// the C-update entry (KernelInfo::update).
template <typename T, int NR>
void microkernel_avx512(index_t k, const T* a_panel, const T* b_panel,
                        T* acc);
template <typename T, int NR>
void microkernel_avx512_update(index_t k, const T* a_panel, const T* b_panel,
                               const OutTermT<T>* targets, int num_targets,
                               index_t ldc, index_t m_sub, index_t n_sub,
                               bool accumulate);
#endif

}  // namespace detail
}  // namespace fmm
