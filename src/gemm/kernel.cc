#include "src/gemm/kernel.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "src/gemm/kernels_arch.h"

namespace fmm {
namespace {

// Compile-time-tiled portable kernel: the inner loops unroll fully, which
// keeps the scalar fallback respectable and gives the generic tiles a
// deterministic reference implementation.
template <typename T, int MR, int NR>
void portable_microkernel(index_t k, const T* a_panel, const T* b_panel,
                          T* acc) {
  T local[MR * NR] = {};
  for (index_t kk = 0; kk < k; ++kk) {
    const T* a = a_panel + kk * MR;
    const T* b = b_panel + kk * NR;
    for (int j = 0; j < NR; ++j) {
      const T bj = b[j];
      T* out = local + j * MR;
      for (int r = 0; r < MR; ++r) out[r] += a[r] * bj;
    }
  }
  for (int i = 0; i < MR * NR; ++i) acc[i] = local[i];
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

// The generic C-update entry of a kernel that writes its block to memory:
// the kernel into a stack block, then epilogue_update at the fused loop's
// (rs, cs) = (1, ldc).
template <typename T, int MR, int NR, MicrokernelFnT<T> Fn>
void stored_block_update(index_t k, const T* a_panel, const T* b_panel,
                         const OutTermT<T>* targets, int num_targets,
                         index_t ldc, index_t m_sub, index_t n_sub,
                         bool accumulate) {
  alignas(64) T acc[MR * NR];
  Fn(k, a_panel, b_panel, acc);
  epilogue_update(targets, num_targets, /*rs=*/1, /*cs=*/ldc, m_sub, n_sub,
                  acc, MR, NR, accumulate);
}

// One registry entry: kernel Fn at an MR x NR tile of T, with its C-update
// entry (the generic adapter unless the kernel brings its own).
template <typename T, int MR, int NR, MicrokernelFnT<T> Fn>
KernelInfo entry(const char* name, const char* isa, double flops_per_cycle,
                 bool vectorized, bool (*supported_fn)(),
                 MicrokernelUpdateFnT<T> update =
                     &stored_block_update<T, MR, NR, Fn>) {
  KernelInfo k{name, isa, DTypeOf<T>::value, MR, NR,
               nullptr, nullptr, nullptr, nullptr,  // entry points: below
               flops_per_cycle, vectorized, supported_fn};
  if constexpr (std::is_same_v<T, double>) {
    k.fn = Fn;
    k.update = update;
  } else {
    k.fn_f32 = Fn;
    k.update_f32 = update;
  }
  return k;
}

std::vector<KernelInfo> build_registry() {
  std::vector<KernelInfo> reg;
  // f64 family first; portable entries lead each family: always supported,
  // lowest throughput hints.
  reg.push_back(entry<double, 8, 6, &portable_microkernel<double, 8, 6>>(
      "portable", "generic", 2.0, false, nullptr));
  reg.push_back(entry<double, 4, 12, &portable_microkernel<double, 4, 12>>(
      "portable_4x12", "generic", 1.8, false, nullptr));
#if defined(FMM_HAVE_AVX2_TU)
  reg.push_back(entry<double, 8, 6, &detail::microkernel_avx2_8x6>(
      "avx2_8x6", "avx2", 16.0, true, &cpu_has_avx2_fma));
  // Thinner tile: better edge utilization when the FMM submatrix rows are
  // not close to a multiple of 8; slightly lower peak (more broadcasts per
  // flop), hence the lower hint.
  reg.push_back(entry<double, 4, 12, &detail::microkernel_avx2_4x12>(
      "avx2_4x12", "avx2", 14.0, true, &cpu_has_avx2_fma));
#endif
#if defined(FMM_HAVE_AVX512_TU)
  reg.push_back(entry<double, 16, 12, &detail::microkernel_avx512<double, 12>>(
      "avx512_16x12", "avx512", 32.0, true, &cpu_has_avx512f,
      &detail::microkernel_avx512_update<double, 12>));
  // The same tile at half the width, for C rows the 12-wide tile pads more
  // than 2x (the selector ranks it only then).
  reg.push_back(entry<double, 16, 6, &detail::microkernel_avx512<double, 6>>(
      "avx512_16x6", "avx512", 28.0, true, &cpu_has_avx512f,
      &detail::microkernel_avx512_update<double, 6>));
#endif
  // f32 family.  The portable f32 entry shares the "portable" name with its
  // f64 sibling so FMM_KERNEL=portable pins the scalar fallback for *both*
  // dtypes (the no-AVX2 CI leg relies on this); lookups are by (name, dtype).
  reg.push_back(entry<float, 8, 6, &portable_microkernel<float, 8, 6>>(
      "portable", "generic", 4.0, false, nullptr));
#if defined(FMM_HAVE_AVX2_TU)
  reg.push_back(entry<float, 16, 6, &detail::microkernel_avx2_16x6_f32>(
      "avx2_16x6", "avx2", 32.0, true, &cpu_has_avx2_fma));
#endif
#if defined(FMM_HAVE_AVX512_TU)
  reg.push_back(entry<float, 32, 12, &detail::microkernel_avx512<float, 12>>(
      "avx512_32x12", "avx512", 64.0, true, &cpu_has_avx512f,
      &detail::microkernel_avx512_update<float, 12>));
  reg.push_back(entry<float, 32, 6, &detail::microkernel_avx512<float, 6>>(
      "avx512_32x6", "avx512", 56.0, true, &cpu_has_avx512f,
      &detail::microkernel_avx512_update<float, 6>));
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

// One element update; `w * a` is rounded before the add in both modes.
template <bool kAccumulate, typename T>
inline void update(T& dst, T w, T a) {
  if constexpr (kAccumulate) {
    dst += w * a;
  } else {
    dst = w * a;
  }
}

// Full tile at unit row stride: column j of the block is MR contiguous
// elements at c + j * cs.  The compile-time width unrolls into whole
// vectors.
template <bool kAccumulate, int MR, typename T>
void update_full_tile(T* c, index_t cs, int nr, const T* acc, T w) {
  for (int j = 0; j < nr; ++j) {
    T* dst = c + j * cs;
    const T* src = acc + j * MR;
    for (int r = 0; r < MR; ++r) update<kAccumulate>(dst[r], w, src[r]);
  }
}

template <bool kAccumulate, typename T>
void update_tile(T* c, index_t rs, index_t cs, index_t m_sub, index_t n_sub,
                 const T* acc, int mr, int nr, T w) {
  if (rs == 1 && m_sub == mr && n_sub == nr) {
    // The tiles that reach this through the generic C-update adapter;
    // other tiles take the general loop.
    switch (mr) {
      case 4:
        return update_full_tile<kAccumulate, 4>(c, cs, nr, acc, w);
      case 8:
        return update_full_tile<kAccumulate, 8>(c, cs, nr, acc, w);
      case 16:
        return update_full_tile<kAccumulate, 16>(c, cs, nr, acc, w);
      default:
        break;
    }
  }
  for (index_t j = 0; j < n_sub; ++j) {
    T* dst = c + j * cs;
    const T* src = acc + j * mr;
    for (index_t r = 0; r < m_sub; ++r) {
      update<kAccumulate>(dst[r * rs], w, src[r]);
    }
  }
}

template <typename T>
void epilogue_update_impl(const OutTermT<T>* targets, int num_targets,
                          index_t rs, index_t cs, index_t m_sub, index_t n_sub,
                          const T* acc, int mr, int nr, bool accumulate) {
  for (int t = 0; t < num_targets; ++t) {
    T* c = targets[t].ptr;
    const T w = static_cast<T>(targets[t].coeff);
    if (accumulate) {
      update_tile<true>(c, rs, cs, m_sub, n_sub, acc, mr, nr, w);
    } else {
      update_tile<false>(c, rs, cs, m_sub, n_sub, acc, mr, nr, w);
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
                     const double* acc, int mr, int nr, bool accumulate) {
  epilogue_update_impl<double>(targets, num_targets, rs, cs, m_sub, n_sub,
                               acc, mr, nr, accumulate);
}

void epilogue_update(const OutTermF32* targets, int num_targets, index_t rs,
                     index_t cs, index_t m_sub, index_t n_sub,
                     const float* acc, int mr, int nr, bool accumulate) {
  epilogue_update_impl<float>(targets, num_targets, rs, cs, m_sub, n_sub,
                              acc, mr, nr, accumulate);
}

}  // namespace fmm
