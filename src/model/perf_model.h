#pragma once

// The performance model of paper §4.2 (Fig. 4 and Fig. 5), generalized to
// any L-level FMM plan.
//
//   T = Ta + Tm
//   Ta = N×a T×a + N^{A+}_a T^{A+}_a + N^{B+}_a T^{B+}_a + N^{C+}_a T^{C+}_a
//   Tm = Σ_X N^X_m T^X_m     over X ∈ {A×, B×, C×, A+, B+, C+}
//
// with the unit times and coefficient tables transcribed from Fig. 5.  The
// model is a function of the problem size (m, n, k), the flattened plan
// parameters (M̃_L, K̃_L, Ñ_L, R_L, nnz(⊗U), nnz(⊗V), nnz(⊗W)), the variant
// (ABC / AB / Naive), the cache blocking (m_C, k_C, n_C), and three
// architecture parameters:
//
//   τ_a     seconds per floating point operation (1 / peak FLOPS)
//   τ_b     amortized seconds per 8-byte element moved from DRAM
//   λ       prefetch-efficiency factor for the C traffic, λ ∈ [0.5, 1]
//
// Arithmetic additions count 2 flops each (they execute as FMAs, Fig. 5).

#include <string>

#include "src/core/plan.h"
#include "src/gemm/blocking.h"

namespace fmm {

struct ModelParams {
  double tau_a = 1.0 / 30e9;  // ~30 GFLOPS/core default; calibrate() refines
  double tau_b = 8.0 / 12e9;  // ~12 GB/s per-core stream bandwidth default
  double lambda = 0.8;        // prefetch efficiency (paper: fit to gemm)
};

// Uncalibrated defaults per element type.  f32 doubles the FMA throughput
// (twice the lanes per vector) and halves the per-element stream cost
// (4-byte elements at the same ~12 GB/s).
ModelParams default_model_params(DType dtype);

// Everything the Fig. 5 tables need, extracted from a Plan.
struct ModelInput {
  double m = 0, n = 0, k = 0;
  double Mt = 1, Kt = 1, Nt = 1;       // Π m̃_l, Π k̃_l, Π ñ_l
  double RL = 1;                       // Π R_l
  double nnz_u = 1, nnz_v = 1, nnz_w = 1;
  Variant variant = Variant::kABC;
  double mc = 96, kc = 256, nc = 4092;
  // Register tile of the kernel the plan runs with (the plan's own choice,
  // else cfg's, else the dispatched default).  Edge panels are zero-padded
  // to full tiles, so the micro-kernel arithmetic runs over the *padded*
  // submatrix dims; the model charges for that (fringe effect Benson &
  // Ballard call out — invisible to the paper's fixed-tile model).
  double mr = 8, nr = 6;
};

ModelInput model_input(const Plan& plan, index_t m, index_t n, index_t k,
                       const GemmConfig& cfg);

// Predicted execution time (seconds) of the plan on one core.
double predict_time(const ModelInput& in, const ModelParams& p);

// Predicted time of conventional GEMM (the Fig. 5 "gemm" column).  The
// dtype selects the kernel family whose register tile and blocking the
// prediction charges for.
double predict_gemm_time(index_t m, index_t n, index_t k,
                         const GemmConfig& cfg, const ModelParams& p,
                         DType dtype = DType::kF64);

// Effective GFLOPS = 2 m n k / T * 1e-9 (Fig. 5, eq. 1).
double predict_effective_gflops(const ModelInput& in, const ModelParams& p);

// Itemized components, for the model-accuracy bench and debugging.
struct ModelBreakdown {
  double t_mul_a;      // N×a · T×a
  double t_add_a;      // the three T^{X+}_a terms
  double t_pack_m;     // A× + B× packing traffic
  double t_c_m;        // C× micro-kernel traffic
  double t_tmp_m;      // A+/B+/C+ temporary-buffer traffic
  double total() const {
    return t_mul_a + t_add_a + t_pack_m + t_c_m + t_tmp_m;
  }
};
ModelBreakdown predict_breakdown(const ModelInput& in, const ModelParams& p);

// Measures τ_a (the resolved kernel's peak, from the per-process
// calibration cache in src/arch/calibrate.h), τ_b (single-thread stream
// bandwidth, likewise cached) and fits λ so that the modeled GEMM time
// matches a measured GEMM at a reference size.  Deterministic given the
// machine; the first call per process pays the measurement cost, later
// calls only re-run the two GEMM fits.
ModelParams calibrate(const GemmConfig& cfg = GemmConfig{});

// Per-dtype calibration.  The f64 path is calibrate() above.  The f32 path
// derives τ_a from the resolved f32 kernel's measured hot-panel rate and τ_b
// from the f32 stream triad, but skips the gemm-based τ_a/λ refinement
// (the fit corpus is f64 gemm; reusing its λ default keeps the two param
// sets independent and cheap).
ModelParams calibrate(const GemmConfig& cfg, DType dtype);

// The analytic default for the task-recursive leaf cutoff
// (src/core/recursive.h): the largest square-ish leaf whose three operands
// still fit the (total) L3 — n = sqrt(l3_bytes / (3 * 8)) — floored to a
// multiple of 64 and clamped to [256, 4096].  Below the lower clamp the
// per-node task and buffer overhead swamps the leaf work; above the upper
// clamp a leaf is DRAM-bound no matter what the topology claims.  An
// unknown L3 (l3_bytes <= 0) assumes 8 MiB.
index_t recommended_recurse_cutoff(const arch::CacheTopology& topo);

}  // namespace fmm
