#pragma once

// Measured-throughput kernel calibration.
//
// PR 2 ranked kernels by a hand-written static hint (flops/cycle); the
// paper's own methodology (§4.2) and Benson & Ballard both argue tuning
// decisions must come from *measured* rates on the target machine.  This
// module times each registered micro-kernel once per process on hot
// packed panels at its derived k_C, caches the sustained GFLOP/s, and
// optionally persists the result across processes in a small text file
// keyed by the CPU model (FMM_CALIB_CACHE=<path>), so repeated short-lived
// processes skip even the few-millisecond timing runs.
//
// Consumers:
//   * best_kernel_for_shape (src/model/selector.cc) ranks kernels by
//     kernel_gflops() instead of the static hint;
//   * the performance model's calibrate() derives τ_a from the active
//     kernel's measured rate and τ_b from measured_tau_b().
//
// The static hint survives only as the pre-calibration fallback: it is
// returned when timing is disabled (FMM_CALIBRATE=0, e.g. under heavy
// sanitizers where wall-clock rates are meaningless).

#include <string>

#include "src/gemm/kernel.h"
#include "src/util/status.h"

namespace fmm::arch {

// Sustained GFLOP/s of `kern` on cache-resident panels at its derived k_C
// (blocking.h), timed at the kernel's own element type (kern.dtype): the
// reused nR-panel sits in L1; a vectorized kernel's mR-panel may not fit
// beside it and streams from L2, as it does in the fused loop.  First call per kernel performs an
// adaptive timing loop (~1-3 ms); subsequent calls return the cached
// value.  Cache rows (in-memory and in FMM_CALIB_CACHE) are keyed by
// kernel_cache_key(), so f32 and f64 rates never mix even for same-named
// kernels.  Thread-safe.
double kernel_gflops(const KernelInfo& kern);

// The pre-calibration estimate: the registry's static flops/cycle hint at
// a nominal clock.  Used when FMM_CALIBRATE=0 disables timing.
double kernel_gflops_hint(const KernelInfo& kern);

// True unless FMM_CALIBRATE is set to 0/off/false.
bool calibration_enabled();

// Amortized seconds per *element* streamed from DRAM on one core (the
// model's τ_b), at the given element width: a >LLC triad over that element
// type, measured once per process per dtype and cached.  f32 elements are
// half the bytes, so τ_b(f32) ≈ τ_b(f64) / 2.  With FMM_CALIBRATE=0 the
// triad is skipped and a nominal ~12 GB/s default is returned, consistent
// with the hint-based τ_a.  The no-argument form is the f64 value.
double measured_tau_b();
double measured_tau_b(DType dtype);

// The persisted-cache key for this machine: the CPU brand string with
// whitespace collapsed to underscores (one whitespace-free token).  Shared
// with the history store (src/model/history.cc) so both files key rows the
// same way.
std::string calibration_cpu_key();

// The first I/O failure observed while loading or appending the
// calibration cache file this process (OK when none, or when no file is
// configured).  Loading silently skipped a malformed file before; serving
// setups want to *know* their cache is not persisting.
Status calibration_file_status();

// --- Testing hooks --------------------------------------------------------

// Physical micro-kernel timing runs performed by this process; a cached or
// file-loaded rate does not increment it.
int calibration_timing_runs();

// Clears the in-memory rate cache and forgets whether FMM_CALIB_CACHE was
// loaded, so the next kernel_gflops() call re-reads the environment.  The
// persisted file itself is untouched.
void calibration_reset_for_testing();

}  // namespace fmm::arch
