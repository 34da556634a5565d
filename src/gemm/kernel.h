#pragma once

// The runtime-dispatched micro-kernel family.
//
// The paper builds every generated algorithm on one near-peak BLIS-style
// micro-kernel; Benson & Ballard (arXiv:1409.2908) observe that the winning
// register tile shifts with problem shape and hardware.  This module turns
// the single compile-time kernel into a queryable *registry* of kernels,
// each described by a KernelInfo: register tile (mR x nR), ISA, element
// type, function pointer, and a static throughput hint the selector can
// rank with.
//
// Contract shared by every kernel (identical to the old single kernel, but
// with per-kernel tile sizes and element type):
//
//   acc[j * mr + r] = sum_{kk < k} a_panel[kk * mr + r] * b_panel[kk * nr + j]
//
// `a_panel` / `b_panel` point at one packed panel (see pack.h); `acc` is a
// column-blocked mr x nr scratch block, always overwritten (k == 0 zeroes
// it).  The epilogue then applies the block to one or many output
// submatrices with per-target coefficients.
//
// Every kernel also has a C-update entry (KernelInfo::update), the one the
// fused loop calls: the same block applied to every target as
// epilogue_update does at (rs, cs) = (1, ldc), bit for bit, added into C
// straight from the registers (the paper's ABC variant, §3).  Every
// registered kernel is one register-tile template (tile.h) instantiated
// with an ISA's vector traits: zmm, ymm, or one-lane scalars.
//
// Selection (per element type — the registry holds an f64 family and an f32
// family, and every resolution step takes the dtype):
//   * active_kernel(dtype) returns the process-wide *default*: the
//     registered kernel of that dtype with the highest throughput hint that
//     this CPU supports (cpuid-based), overridable with the FMM_KERNEL
//     environment variable (e.g. FMM_KERNEL=portable forces the scalar
//     fallback for both dtypes — the portable kernels share the name).
//   * Explicit programmatic choices travel in Plan::kernel (strongest) and
//     GemmConfig::kernel, and beat the environment — unit tests and
//     benches must be able to exercise any kernel regardless of FMM_KERNEL.
//     The model-guided selector (selector.h) fills Plan::kernel per
//     problem shape, deferring to an FMM_KERNEL override when one is set.

#include <string>
#include <vector>

#include "src/gemm/dtype.h"
#include "src/gemm/term.h"
#include "src/linalg/mat_view.h"

namespace fmm {

// Upper bounds over every registered kernel, per element type; size stack
// accumulators as `T acc[kMaxAccElemsOf<T>]`.  The f32 tiles are wider
// (twice the lanes per vector register), so the f64 bound must never size
// an f32 accumulator — build_registry() asserts every entry fits its own
// dtype's bound.
inline constexpr int kMaxMR = 16;
inline constexpr int kMaxNR = 16;
inline constexpr int kMaxAccElems = kMaxMR * kMaxNR;
inline constexpr int kMaxMRF32 = 32;
inline constexpr int kMaxNRF32 = 16;
inline constexpr int kMaxAccElemsF32 = kMaxMRF32 * kMaxNRF32;

template <typename T>
inline constexpr int kMaxAccElemsOf = kMaxAccElems;
template <>
inline constexpr int kMaxAccElemsOf<float> = kMaxAccElemsF32;

template <typename T>
using MicrokernelFnT = void (*)(index_t k, const T* a_panel, const T* b_panel,
                                T* acc);
using MicrokernelFn = MicrokernelFnT<double>;
using MicrokernelF32Fn = MicrokernelFnT<float>;

// The C-update entry: for each target t and each block element (r, j)
// with r < m_sub, j < n_sub,
//
//     C_t[r + j * ldc] += coeff_t * block(r, j)   (accumulate)
//     C_t[r + j * ldc]  = coeff_t * block(r, j)   (overwrite)
//
// where block is what the kernel entry would write to acc.
template <typename T>
using MicrokernelUpdateFnT = void (*)(index_t k, const T* a_panel,
                                      const T* b_panel,
                                      const OutTermT<T>* targets,
                                      int num_targets, index_t ldc,
                                      index_t m_sub, index_t n_sub,
                                      bool accumulate);
using MicrokernelUpdateFn = MicrokernelUpdateFnT<double>;
using MicrokernelUpdateF32Fn = MicrokernelUpdateFnT<float>;

struct KernelInfo {
  const char* name;  // registry key, e.g. "avx2_8x6"; unique per dtype
  const char* isa;   // "generic", "avx2", "avx512"
  DType dtype;
  int mr;
  int nr;
  MicrokernelFn fn;                   // set iff dtype == kF64
  MicrokernelF32Fn fn_f32;            // set iff dtype == kF32
  MicrokernelUpdateFn update;         // set iff dtype == kF64
  MicrokernelUpdateF32Fn update_f32;  // set iff dtype == kF32
  // Rough sustained flops/cycle at this dtype (portable ~2, AVX2 FMA ~16
  // f64 / ~32 f32, AVX-512 double that).  Used to pick the process-wide
  // default kernel and as the pre-calibration fallback (FMM_CALIBRATE=0);
  // actual ranking and the performance model consume *measured* rates from
  // src/arch/calibrate.h.
  double flops_per_cycle;
  bool vectorized;
  bool (*supported_fn)();  // nullptr means "always supported"

  bool supported() const { return supported_fn == nullptr || supported_fn(); }
};

// Typed access to the kernel entry point; the caller must hold a kernel of
// the matching dtype (resolve with find_kernel/active_kernel per dtype).
template <typename T>
auto kernel_fn(const KernelInfo& k);
template <>
inline auto kernel_fn<double>(const KernelInfo& k) {
  return k.fn;
}
template <>
inline auto kernel_fn<float>(const KernelInfo& k) {
  return k.fn_f32;
}

// Typed access to the C-update entry, as kernel_fn.
template <typename T>
auto kernel_update_fn(const KernelInfo& k);
template <>
inline auto kernel_update_fn<double>(const KernelInfo& k) {
  return k.update;
}
template <>
inline auto kernel_update_fn<float>(const KernelInfo& k) {
  return k.update_f32;
}

// Key under which calibration/history caches store this kernel's rows.
// The f64 names stay bare (persisted caches from before the f32 family
// remain valid); f32 rows are "f32:"-qualified so same-named kernels of
// the two dtypes never share a row.
std::string kernel_cache_key(const KernelInfo& kern);

// Every kernel compiled into this binary, f64 family first (portable at
// index 0), then the f32 family.  Entries whose ISA the running CPU lacks
// are present but report supported() == false.
const std::vector<KernelInfo>& kernel_registry();

// Registry lookup by (name, dtype); nullptr when absent.  The one-argument
// form keeps the historical f64 semantics.
const KernelInfo* find_kernel(const std::string& name,
                              DType dtype = DType::kF64);

// Resolution used by active_kernel(): an empty/null request (or one that
// names a missing/unsupported kernel *of this dtype*) falls back to the
// best supported kernel of the dtype; a valid request pins that kernel.
// When `diag` is non-null it receives a human-readable note about any
// fallback taken.
const KernelInfo& resolve_kernel(const char* request,
                                 std::string* diag = nullptr);
const KernelInfo& resolve_kernel(const char* request, DType dtype,
                                 std::string* diag = nullptr);

// resolve_kernel(getenv("FMM_KERNEL")), re-read on every call (tests).
const KernelInfo& resolve_active_kernel(std::string* diag = nullptr);
const KernelInfo& resolve_active_kernel(DType dtype,
                                        std::string* diag = nullptr);

// The process-wide default kernel of each dtype: resolve_active_kernel()
// evaluated once per dtype, with any fallback diagnostic printed to stderr
// on first use.  The no-argument form is the f64 default.
const KernelInfo& active_kernel();
const KernelInfo& active_kernel(DType dtype);

// True when FMM_KERNEL successfully pinned a kernel of this dtype; the
// selector then must not second-guess the override.
bool kernel_override_active(DType dtype = DType::kF64);

// Reference kernel for arbitrary tiles (1 <= mr <= the dtype's max tile):
// the ground truth the equivalence tests compare every registry entry to.
void microkernel_generic(int mr, int nr, index_t k, const double* a_panel,
                         const double* b_panel, double* acc);
void microkernel_generic(int mr, int nr, index_t k, const float* a_panel,
                         const float* b_panel, float* acc);

// Epilogue: for each target t, every element (r, j) of the accumulator
// block with r < m_sub, j < n_sub updates
//
//     C_t[r * rs + j * cs] += coeff_t * acc[j * mr + r]   (accumulate)
//     C_t[r * rs + j * cs]  = coeff_t * acc[j * mr + r]   (overwrite)
//
// Overwrite serves the first k-block when streaming into a fresh
// temporary.  `acc` is the kernel's block with leading dimension mr;
// m_sub <= mr and n_sub <= nr mask edge tiles.  The fused loop runs on the
// transposed problem, where the kernels' C-update entries apply the block
// at (rs, cs) = (1, ldc): column j of `acc` is mr contiguous elements of
// one C row.  The product and the add stay separate operations (kernel.cc
// builds with -ffp-contract=off), so every stride pair, and every kernel's
// C-update entry, gives the same bits; the tests hold the entries to this
// reference.
void epilogue_update(const OutTerm* targets, int num_targets, index_t rs,
                     index_t cs, index_t m_sub, index_t n_sub,
                     const double* acc, int mr, int nr, bool accumulate);
void epilogue_update(const OutTermF32* targets, int num_targets, index_t rs,
                     index_t cs, index_t m_sub, index_t n_sub,
                     const float* acc, int mr, int nr, bool accumulate);

// The (rs, cs) = (ldc, 1) case: row r of the block lands in row r of each
// C_t[0:m_sub, 0:n_sub] (row stride ldc).
inline void epilogue_update(const OutTerm* targets, int num_targets,
                            index_t ldc, index_t m_sub, index_t n_sub,
                            const double* acc, int mr, int nr,
                            bool accumulate = true) {
  epilogue_update(targets, num_targets, ldc, 1, m_sub, n_sub, acc, mr, nr,
                  accumulate);
}
inline void epilogue_update(const OutTermF32* targets, int num_targets,
                            index_t ldc, index_t m_sub, index_t n_sub,
                            const float* acc, int mr, int nr,
                            bool accumulate = true) {
  epilogue_update(targets, num_targets, ldc, 1, m_sub, n_sub, acc, mr, nr,
                  accumulate);
}

}  // namespace fmm
