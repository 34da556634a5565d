#include "src/gemm/blocking.h"

#include "src/gemm/fused.h"  // resolve_threads
#include "src/util/env.h"

namespace fmm {
namespace {

// Largest multiple of `step` that is <= value, clamped to [lo, hi].  The
// result is always a multiple of `step`: the bounds are snapped onto the
// step grid first (lo up, hi down), because clamping a floored value to a
// raw `lo` would return lo itself — which need not be a multiple — whenever
// the derived value lands below it (tiny mocked topologies hit this and
// would hand the pack/micro-kernel layer an mc or nc off the register-tile
// grid).  hi is kept >= the snapped lo so degenerate bounds still yield a
// grid point.
index_t floor_multiple_clamped(double value, index_t step, index_t lo,
                               index_t hi) {
  index_t v = static_cast<index_t>(value);
  v = (v / step) * step;
  lo = round_up(lo, step);
  hi = std::max((hi / step) * step, lo);
  return std::clamp(v, lo, hi);
}

// A positive FMM_MC/FMM_KC/FMM_NC value, or 0 when unset or rejected
// (non-numeric suffixes and out-of-range values warn and fall back).
index_t env_block(const char* name) {
  const std::optional<long> v = parse_env_long(name, 1, 1L << 30);
  return v.has_value() ? static_cast<index_t>(*v) : 0;
}

}  // namespace

AutoBlocking derive_blocking(const KernelInfo& kernel,
                             const arch::CacheTopology& topo,
                             index_t kc_pinned, int threads) {
  // Cache budgets are in bytes; the element size follows the kernel's dtype
  // (f32 panels hold twice the elements per byte, so the same caches admit
  // wider blocks).
  const double kWord = static_cast<double>(dtype_size(kernel.dtype));
  AutoBlocking ab;

  // k_C: what L1d must hold across the i_r loop (see blocking.h).  A
  // vectorized kernel keeps only the reused nR x k_C A~ micro-panel there,
  // in 3/4 of L1d, and streams the mR-panels from L2; a scalar kernel
  // keeps both micro-panels (mR x k_C and nR x k_C), which pins the
  // paper's Ivy Bridge k_C = 256.  A caller that pinned k_C (explicit
  // config or FMM_KC) still gets m_C/n_C sized for *that* k_C — the
  // cache-fit invariants must hold for the blocking that actually runs,
  // not for the k_C we would have chosen.
  if (kc_pinned > 0) {
    ab.kc = kc_pinned;
  } else {
    const double l1 = static_cast<double>(std::max(topo.l1d_bytes, 1L));
    const double l1_words = kernel.vectorized
                                ? 0.75 * l1 / (kernel.nr * kWord)
                                : l1 / ((kernel.mr + kernel.nr) * kWord);
    ab.kc = floor_multiple_clamped(l1_words, /*step=*/64, /*lo=*/64,
                                   /*hi=*/1024);
  }

  // m_C: the packed B~ tile (m_C x k_C) takes ~3/4 of L2, leaving room for
  // the A~ micro-panels streaming through.
  const double l2 = static_cast<double>(std::max(topo.l2_bytes, 1L));
  ab.mc = floor_multiple_clamped(0.75 * l2 / (ab.kc * kWord), kernel.mr,
                                 kernel.mr, round_up(1536, kernel.mr));

  // n_C: the packed A~ buffer (k_C x n_C) is cooperatively packed and shared
  // by every core on the L3 slice, so it budgets against the whole slice
  // (one third) rather than a per-core share — a deliberate choice: even a
  // single-threaded GEMM can productively fill an otherwise idle L3, and
  // the paper's own n_C = 4092 claims a third of its 25 MiB slice.  Two
  // guards: an 8 MiB cap (bounds the workspace footprint on huge-L3 server
  // parts, where far-L3 hit latency stops paying for itself anyway), and a
  // per-core-share cap when the slice is split among very many cores:
  // this call's resolved thread count says how many of those sharing cores
  // *we* occupy (never fewer than four shares — a serial GEMM may still
  // fill an idle L3 — and never more than the slice actually has).  No (or
  // unknown) L3: the cap.
  constexpr double kBPanelCap = 8.0 * 1024 * 1024;
  const double l3 = static_cast<double>(topo.l3_bytes);
  const int sharing = std::max(topo.l3_sharing, 1);
  const int shares = std::min(std::max(threads, 4), sharing);
  const double budget =
      l3 > 0 ? std::min({l3 / 3.0, kBPanelCap, shares * l3 / sharing})
             : kBPanelCap;
  ab.nc = floor_multiple_clamped(budget / (ab.kc * kWord), kernel.nr,
                                 kernel.nr, round_up(16384, kernel.nr));
  return ab;
}

BlockingParams resolve_blocking(const GemmConfig& cfg, DType dtype) {
  BlockingParams bp;
  // A configured kernel of the wrong dtype cannot run this call; fall back
  // to the dtype's default rather than feeding f64 panels to an f32 kernel.
  bp.kernel = (cfg.kernel != nullptr && cfg.kernel->dtype == dtype)
                  ? cfg.kernel
                  : &active_kernel(dtype);
  bp.mr = bp.kernel->mr;
  bp.nr = bp.kernel->nr;

  // Per-field precedence: explicit config > environment > derived.
  index_t mc = cfg.mc > 0 ? cfg.mc : env_block("FMM_MC");
  index_t kc = cfg.kc > 0 ? cfg.kc : env_block("FMM_KC");
  index_t nc = cfg.nc > 0 ? cfg.nc : env_block("FMM_NC");
  if (mc == 0 || kc == 0 || nc == 0) {
    // A pinned kc reshapes the derived mc/nc (the B~ tile and A~ buffer must
    // fit the caches at the kc that actually runs).
    const AutoBlocking ab = derive_blocking(*bp.kernel, arch::cache_topology(),
                                            kc, resolve_threads(cfg));
    if (mc == 0) mc = ab.mc;
    if (kc == 0) kc = ab.kc;
    if (nc == 0) nc = ab.nc;
  }
  bp.kc = std::max<index_t>(kc, 1);
  bp.mc = round_up(std::max<index_t>(mc, bp.mr), bp.mr);
  bp.nc = round_up(std::max<index_t>(nc, bp.nr), bp.nr);
  return bp;
}

}  // namespace fmm
