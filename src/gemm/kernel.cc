#include "src/gemm/kernel.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "src/gemm/kernels_arch.h"
#include "src/gemm/tile.h"

namespace fmm {
namespace {

// The one-lane operations of the portable register tile (tile.h): the
// same loops in scalars, its multiply and add unfused (this TU builds with
// -ffp-contract=off).
template <typename T>
struct Scalar {
  using Elem = T;
  using V = T;
  using Mask = bool;
  static constexpr int kLanes = 1;
  static T zero() { return T(0); }
  static T set1(T x) { return x; }
  static T load(const T* p) { return *p; }
  static T load(bool m, const T* p) { return m ? *p : T(0); }
  static void store(T* p, T v) { *p = v; }
  static void store(T* p, bool m, T v) {
    if (m) *p = v;
  }
  static T fmadd(T a, T b, T c) { return a * b + c; }
  static T mul(T a, T b) { return a * b; }
  static T add(T a, T b) { return a + b; }
  static bool mask(int n) { return n > 0; }
};

template <typename T, int VPC, int NR>
void portable_kernel(index_t k, const T* a_panel, const T* b_panel, T* acc) {
  detail::Tile<Scalar<T>, VPC, NR>(k, a_panel, b_panel).store(acc);
}

template <typename T, int VPC, int NR>
void portable_update(index_t k, const T* a_panel, const T* b_panel,
                     const OutTermT<T>* targets, int num_targets, index_t ldc,
                     index_t m_sub, index_t n_sub, bool accumulate) {
  detail::Tile<Scalar<T>, VPC, NR>(k, a_panel, b_panel)
      .update(targets, num_targets, ldc, m_sub, n_sub, accumulate);
}

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
bool cpu_has_avx512f() { return __builtin_cpu_supports("avx512f"); }
#else
bool cpu_has_avx2_fma() { return false; }
bool cpu_has_avx512f() { return false; }
#endif

constexpr DType kF64 = DType::kF64;
constexpr DType kF32 = DType::kF32;

// One registry entry: a kernel's two entries at an mr x nr tile of T.
template <typename T>
KernelInfo entry(const char* name, const char* isa, int mr, int nr,
                 MicrokernelFnT<T> fn, MicrokernelUpdateFnT<T> update,
                 double flops_per_cycle, bool vectorized,
                 bool (*supported_fn)()) {
  KernelInfo k{name, isa, DTypeOf<T>::value, mr, nr,
               nullptr, nullptr, nullptr, nullptr,  // entry points: below
               flops_per_cycle, vectorized, supported_fn};
  if constexpr (std::is_same_v<T, double>) {
    k.fn = fn;
    k.update = update;
  } else {
    k.fn_f32 = fn;
    k.update_f32 = update;
  }
  return k;
}

// The register tile at VPC vectors per column by NR on each ISA: a
// portable vector is one element, an AVX2 vector 32 bytes, an AVX-512
// vector 64.
template <typename T, int VPC, int NR>
KernelInfo portable(const char* name, double flops_per_cycle) {
  return entry<T>(name, "generic", VPC, NR,
                  &portable_kernel<T, VPC, NR>, &portable_update<T, VPC, NR>,
                  flops_per_cycle, false, nullptr);
}
#if defined(FMM_HAVE_AVX2_TU)
template <typename T, int VPC, int NR>
KernelInfo avx2(const char* name, double flops_per_cycle) {
  return entry<T>(name, "avx2", VPC * 32 / static_cast<int>(sizeof(T)), NR,
                  &detail::microkernel_avx2<T, VPC, NR>,
                  &detail::microkernel_avx2_update<T, VPC, NR>,
                  flops_per_cycle, true, &cpu_has_avx2_fma);
}
#endif
#if defined(FMM_HAVE_AVX512_TU)
template <typename T, int VPC, int NR>
KernelInfo avx512(const char* name, double flops_per_cycle) {
  return entry<T>(name, "avx512", VPC * 64 / static_cast<int>(sizeof(T)), NR,
                  &detail::microkernel_avx512<T, VPC, NR>,
                  &detail::microkernel_avx512_update<T, VPC, NR>,
                  flops_per_cycle, true, &cpu_has_avx512f);
}
#endif

std::vector<KernelInfo> build_registry() {
  std::vector<KernelInfo> reg;
  // f64 family first; portable entries lead each family: always supported,
  // lowest throughput hints.
  reg.push_back(portable<double, 8, 6>("portable", 2.0));
  reg.push_back(portable<double, 4, 12>("portable_4x12", 1.8));
#if defined(FMM_HAVE_AVX2_TU)
  reg.push_back(avx2<double, 2, 6>("avx2_8x6", 16.0));
  // Thinner tile: better edge utilization when the FMM submatrix rows are
  // not close to a multiple of 8; slightly lower peak (more broadcasts per
  // flop), hence the lower hint.
  reg.push_back(avx2<double, 1, 12>("avx2_4x12", 14.0));
#endif
#if defined(FMM_HAVE_AVX512_TU)
  reg.push_back(avx512<double, 2, 12>("avx512_16x12", 32.0));
  // The same tile at half the width, for C rows the 12-wide tile pads more
  // than 2x (the selector ranks it only then).
  reg.push_back(avx512<double, 2, 6>("avx512_16x6", 28.0));
#endif
  // f32 family.  The portable f32 entry shares the "portable" name with its
  // f64 sibling so FMM_KERNEL=portable pins the scalar fallback for *both*
  // dtypes (the no-AVX2 CI leg relies on this); lookups are by (name, dtype).
  reg.push_back(portable<float, 8, 6>("portable", 4.0));
#if defined(FMM_HAVE_AVX2_TU)
  reg.push_back(avx2<float, 2, 6>("avx2_16x6", 32.0));
#endif
#if defined(FMM_HAVE_AVX512_TU)
  reg.push_back(avx512<float, 2, 12>("avx512_32x12", 64.0));
  reg.push_back(avx512<float, 2, 6>("avx512_32x6", 56.0));
#endif
  (void)cpu_has_avx512f;  // non-x86 / no-TU builds
  (void)cpu_has_avx2_fma;
  for (const KernelInfo& k : reg) {
    // Each entry must carry exactly the entry points of its dtype and fit
    // that dtype's accumulator bound.
    assert((k.dtype == kF64) == (k.fn != nullptr));
    assert((k.dtype == kF64) == (k.update != nullptr));
    assert((k.dtype == kF32) == (k.fn_f32 != nullptr));
    assert((k.dtype == kF32) == (k.update_f32 != nullptr));
    assert(k.mr <= (k.dtype == kF32 ? kMaxMRF32 : kMaxMR));
    assert(k.nr <= (k.dtype == kF32 ? kMaxNRF32 : kMaxNR));
    (void)k;
  }
  return reg;
}

const KernelInfo& best_supported_kernel(DType dtype) {
  const std::vector<KernelInfo>& reg = kernel_registry();
  const KernelInfo* best = nullptr;
  for (const KernelInfo& k : reg) {
    if (k.dtype != dtype || !k.supported()) continue;
    if (best == nullptr || k.flops_per_cycle > best->flops_per_cycle)
      best = &k;
  }
  assert(best != nullptr);  // each family leads with an always-on portable
  return *best;
}

// Pure resolution: `pinned` reports whether the request named a usable
// kernel (as opposed to falling back to the default).
const KernelInfo& resolve_impl(const char* request, DType dtype,
                               std::string* diag, bool* pinned) {
  if (pinned) *pinned = false;
  if (request == nullptr || *request == '\0')
    return best_supported_kernel(dtype);
  const KernelInfo* k = find_kernel(request, dtype);
  if (k == nullptr) {
    if (diag) {
      *diag = std::string("FMM_KERNEL=") + request + ": no such " +
              dtype_name(dtype) + " kernel, using default";
    }
    return best_supported_kernel(dtype);
  }
  if (!k->supported()) {
    if (diag) {
      *diag = std::string("FMM_KERNEL=") + request +
              ": not supported by this CPU, using default";
    }
    return best_supported_kernel(dtype);
  }
  if (pinned) *pinned = true;
  return *k;
}

// The process-wide default of one dtype, resolved once on first use.
struct ActiveState {
  const KernelInfo* kernel;
  bool pinned;
};

ActiveState make_active(DType dtype) {
  std::string diag;
  bool pinned = false;
  const KernelInfo& k =
      resolve_impl(std::getenv("FMM_KERNEL"), dtype, &diag, &pinned);
  if (!diag.empty()) std::fprintf(stderr, "fmm: %s\n", diag.c_str());
  return ActiveState{&k, pinned};
}

const ActiveState& active_state(DType dtype) {
  static const ActiveState s64 = make_active(kF64);
  static const ActiveState s32 = make_active(kF32);
  return dtype == kF32 ? s32 : s64;
}

template <typename T>
void microkernel_generic_impl(int mr, int nr, index_t k, const T* a_panel,
                              const T* b_panel, T* acc) {
  T local[kMaxAccElemsOf<T>] = {};
  for (index_t kk = 0; kk < k; ++kk) {
    const T* a = a_panel + kk * mr;
    const T* b = b_panel + kk * nr;
    for (int j = 0; j < nr; ++j) {
      const T bj = b[j];
      T* out = local + j * mr;
      for (int r = 0; r < mr; ++r) out[r] += a[r] * bj;
    }
  }
  for (int i = 0; i < mr * nr; ++i) acc[i] = local[i];
}

// `w * acc` is rounded before the add in both modes.
template <typename T>
void epilogue_update_impl(const OutTermT<T>* targets, int num_targets,
                          index_t rs, index_t cs, index_t m_sub, index_t n_sub,
                          const T* acc, int mr, bool accumulate) {
  for (int t = 0; t < num_targets; ++t) {
    const T w = static_cast<T>(targets[t].coeff);
    for (index_t j = 0; j < n_sub; ++j) {
      T* dst = targets[t].ptr + j * cs;
      const T* src = acc + j * mr;
      for (index_t r = 0; r < m_sub; ++r) {
        const T x = w * src[r];
        dst[r * rs] = accumulate ? dst[r * rs] + x : x;
      }
    }
  }
}

}  // namespace

std::string kernel_cache_key(const KernelInfo& kern) {
  if (kern.dtype == kF32) return std::string("f32:") + kern.name;
  return kern.name;
}

const std::vector<KernelInfo>& kernel_registry() {
  static const std::vector<KernelInfo> reg = build_registry();
  return reg;
}

const KernelInfo* find_kernel(const std::string& name, DType dtype) {
  for (const KernelInfo& k : kernel_registry()) {
    if (k.dtype == dtype && name == k.name) return &k;
  }
  return nullptr;
}

const KernelInfo& resolve_kernel(const char* request, std::string* diag) {
  return resolve_impl(request, kF64, diag, nullptr);
}

const KernelInfo& resolve_kernel(const char* request, DType dtype,
                                 std::string* diag) {
  return resolve_impl(request, dtype, diag, nullptr);
}

const KernelInfo& resolve_active_kernel(std::string* diag) {
  return resolve_impl(std::getenv("FMM_KERNEL"), kF64, diag, nullptr);
}

const KernelInfo& resolve_active_kernel(DType dtype, std::string* diag) {
  return resolve_impl(std::getenv("FMM_KERNEL"), dtype, diag, nullptr);
}

const KernelInfo& active_kernel() { return *active_state(kF64).kernel; }

const KernelInfo& active_kernel(DType dtype) {
  return *active_state(dtype).kernel;
}

bool kernel_override_active(DType dtype) {
  return active_state(dtype).pinned;
}

void microkernel_generic(int mr, int nr, index_t k, const double* a_panel,
                         const double* b_panel, double* acc) {
  microkernel_generic_impl<double>(mr, nr, k, a_panel, b_panel, acc);
}

void microkernel_generic(int mr, int nr, index_t k, const float* a_panel,
                         const float* b_panel, float* acc) {
  microkernel_generic_impl<float>(mr, nr, k, a_panel, b_panel, acc);
}

void epilogue_update(const OutTerm* targets, int num_targets, index_t rs,
                     index_t cs, index_t m_sub, index_t n_sub,
                     const double* acc, int mr, int /*nr*/,
                     bool accumulate) {
  epilogue_update_impl<double>(targets, num_targets, rs, cs, m_sub, n_sub,
                               acc, mr, accumulate);
}

void epilogue_update(const OutTermF32* targets, int num_targets, index_t rs,
                     index_t cs, index_t m_sub, index_t n_sub,
                     const float* acc, int mr, int /*nr*/,
                     bool accumulate) {
  epilogue_update_impl<float>(targets, num_targets, rs, cs, m_sub, n_sub,
                              acc, mr, accumulate);
}

}  // namespace fmm
