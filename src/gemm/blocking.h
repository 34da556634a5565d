#pragma once

// Cache-blocking configuration for the GotoBLAS/BLIS loop structure (paper
// Fig. 1, left).  Register block sizes mR x nR come from the *active
// micro-kernel* (kernel.h) and are runtime values; cache block sizes mC,
// kC, nC are runtime parameters so benches can explore them.
//
// Since PR 3 the defaults are *derived from the machine*: a GemmConfig
// field of 0 means "auto", and resolve_blocking() fills it from the
// detected cache topology (src/arch/cache_info.h) with a BLIS-style
// analytic model (Low et al., "Analytical Modeling Is Enough for
// High-Performance BLIS"), per micro-kernel.  On unknown CPUs the default
// topology reproduces the paper's Ivy Bridge constants (96, 256, 4092).

#include <algorithm>

#include "src/arch/cache_info.h"
#include "src/gemm/kernel.h"
#include "src/linalg/mat_view.h"

namespace fmm {

struct GemmConfig {
  // Cache block sizes; 0 (the default) means "derive from the detected
  // cache topology for the resolved kernel".  Precedence per field:
  // explicit value here > FMM_MC/FMM_KC/FMM_NC environment > derived.
  // The fused loop runs on C^T (src/gemm/fused.h), so m_C blocks C's
  // columns and n_C its rows.
  int mc = 0;  // C columns per packed B~ tile (rounded up to a multiple of mR)
  int kc = 0;  // shared inner dimension of both packed buffers
  int nc = 0;  // C rows per packed A~ buffer (rounded up to a multiple of nR)

  // Width of the data-parallel loops (TaskPool::parallel_region); 0 means
  // std::thread::hardware_concurrency().
  int num_threads = 0;

  // Micro-kernel for this configuration; nullptr means active_kernel()
  // (cpuid-dispatched, FMM_KERNEL-overridable).  Plans carry their own
  // choice (Plan::kernel) which the driver installs here per call.
  const KernelInfo* kernel = nullptr;

  // Model parameters live in src/model; only the geometry lives here.

  bool valid() const { return mc >= 0 && kc >= 0 && nc >= 0; }

  // Whole-value equality (the executor cache keys on it); keep in sync
  // with the fields above when extending the struct.
  friend bool operator==(const GemmConfig& a, const GemmConfig& b) {
    return a.mc == b.mc && a.kc == b.kc && a.nc == b.nc &&
           a.num_threads == b.num_threads && a.kernel == b.kernel;
  }
  friend bool operator!=(const GemmConfig& a, const GemmConfig& b) {
    return !(a == b);
  }
};

inline index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }
inline index_t round_up(index_t a, index_t b) { return ceil_div(a, b) * b; }

// The blocking actually used by one fused-multiply call: the resolved
// kernel plus cache block sizes rounded to its register tile.  Everything
// downstream of resolve_blocking() works in these derived values; the raw
// GemmConfig is user intent.
struct BlockingParams {
  const KernelInfo* kernel = nullptr;
  int mr = 0;
  int nr = 0;
  index_t mc = 0;  // multiple of mr
  index_t kc = 0;
  index_t nc = 0;  // multiple of nr
};

// Analytic cache blocking for one kernel on one topology (testable with
// hand-built topologies).  The fused loop runs on C^T, so the kernel's
// mR-side operand is B~ (m_C blocks C's columns) and its nR-side operand
// is A~ (n_C blocks C's rows):
//   k_C: the nR x k_C A~ micro-panel is reused by every mR-panel of the
//        B~ tile across the i_r loop, so it must stay in L1.  For a
//        vectorized kernel it is all L1 is charged with: nR * k_C * w <=
//        3/4 * L1d (w the element size), and the mR x k_C micro-panels
//        stream from L2 past it (k_C = 384 for the 16x12 f64 tile on a
//        48 KiB L1d; the both-panels rule would give 192 and split a
//        k = 256 product into two passes over C).  A scalar (portable)
//        kernel keeps both micro-panels in L1 together: k_C = L1d /
//        ((mR + nR) * w), which gives the paper's Ivy Bridge 256.  Either
//        is floored to a multiple of 64 and clamped to [64, 1024];
//   m_C: the m_C x k_C packed B~ tile occupies ~3/4 of L2 (the rest feeds
//        the A~ micro-panels streaming past it), floored to a multiple of
//        mR and clamped to [mR, 1536];
//   n_C: the k_C x n_C packed A~ buffer is cooperatively shared by every
//        core on the L3 slice, so it budgets one third of the *whole*
//        slice (not a per-core share), capped at 8 MiB and — on heavily
//        shared slices — at min(max(threads, 4), l3_sharing) per-core
//        shares: a wide parallel call may claim as many shares as cores
//        it occupies, a serial one still gets four (filling an idle L3
//        pays even single-threaded), floored to nR.
// `kc_pinned` > 0 (an explicit config or FMM_KC value) replaces the k_C
// derivation and reshapes m_C/n_C so the fit invariants hold for the k_C
// that actually runs.  `threads` is the resolved thread count of the call
// the blocking serves (resolve_blocking passes it automatically).
struct AutoBlocking {
  index_t mc = 0;
  index_t kc = 0;
  index_t nc = 0;
};
AutoBlocking derive_blocking(const KernelInfo& kernel,
                             const arch::CacheTopology& topo,
                             index_t kc_pinned = 0, int threads = 1);

// Resolves a GemmConfig against the running machine: picks the kernel
// (cfg.kernel when it matches the requested dtype, else that dtype's
// cpuid-dispatched default), then per cache-block field applies the
// precedence explicit > FMM_MC/FMM_KC/FMM_NC env > derived, rounding mc/nc
// to the kernel's register tile.
BlockingParams resolve_blocking(const GemmConfig& cfg,
                                DType dtype = DType::kF64);

}  // namespace fmm
