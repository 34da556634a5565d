#pragma once

// Internal declarations of the ISA-specific micro-kernels.  Each ISA's
// vector traits live in their own translation unit compiled with the
// matching target flags (see CMakeLists: microkernel_avx2.cc gets -mavx2
// -mfma, etc.), which instantiates the one register tile (tile.h) at the
// shapes the registry lists, so a baseline x86-64 build still ships the
// vector kernels and picks them at runtime via cpuid.  The FMM_HAVE_*_TU
// macros are defined for the whole fmm target when the compiler supports
// the flags.
//
// Each ISA exports the tile's two entries, Tile<Traits<T>, VPC, NR>: VPC
// vectors of the mR-panel per column by NR columns.  `microkernel_<isa>`
// writes the block to acc (KernelInfo::fn), `microkernel_<isa>_update`
// adds it into C (KernelInfo::update).

#include "src/gemm/term.h"
#include "src/linalg/mat_view.h"

namespace fmm {
namespace detail {

#if defined(FMM_HAVE_AVX2_TU)
// Ymm: 4 f64 / 8 f32 lanes.
template <typename T, int VPC, int NR>
void microkernel_avx2(index_t k, const T* a_panel, const T* b_panel, T* acc);
template <typename T, int VPC, int NR>
void microkernel_avx2_update(index_t k, const T* a_panel, const T* b_panel,
                             const OutTermT<T>* targets, int num_targets,
                             index_t ldc, index_t m_sub, index_t n_sub,
                             bool accumulate);
#endif

#if defined(FMM_HAVE_AVX512_TU)
// Zmm: 8 f64 / 16 f32 lanes.
template <typename T, int VPC, int NR>
void microkernel_avx512(index_t k, const T* a_panel, const T* b_panel,
                        T* acc);
template <typename T, int VPC, int NR>
void microkernel_avx512_update(index_t k, const T* a_panel, const T* b_panel,
                               const OutTermT<T>* targets, int num_targets,
                               index_t ldc, index_t m_sub, index_t n_sub,
                               bool accumulate);
#endif

// Explicitly instantiates both entries of one ISA at one tile shape, in
// that ISA's TU.
#define FMM_TILE_ENTRIES(name, T, VPC, NR)                                 \
  template void name<T, VPC, NR>(index_t, const T*, const T*, T*);         \
  template void name##_update<T, VPC, NR>(index_t, const T*, const T*,     \
                                          const OutTermT<T>*, int, index_t, \
                                          index_t, index_t, bool);

}  // namespace detail
}  // namespace fmm
