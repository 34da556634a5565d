#include "src/model/perf_model.h"

#include <algorithm>
#include <cmath>

#include "src/arch/calibrate.h"
#include "src/gemm/gemm.h"
#include "src/gemm/kernel.h"
#include "src/linalg/matrix.h"
#include "src/util/timer.h"

namespace fmm {
namespace {

double ceil_ratio(double a, double b) { return std::ceil(a / b); }

}  // namespace

ModelParams default_model_params(DType dtype) {
  ModelParams p;
  if (dtype == DType::kF32) {
    p.tau_a = 1.0 / 60e9;  // twice the lanes per FMA
    p.tau_b = 4.0 / 12e9;  // half the bytes per element
  }
  return p;
}

ModelInput model_input(const Plan& plan, index_t m, index_t n, index_t k,
                       const GemmConfig& cfg) {
  ModelInput in;
  in.m = static_cast<double>(m);
  in.n = static_cast<double>(n);
  in.k = static_cast<double>(k);
  in.Mt = plan.Mt();
  in.Kt = plan.Kt();
  in.Nt = plan.Nt();
  in.RL = plan.R();
  in.nnz_u = plan.flat.nnz_u();
  in.nnz_v = plan.flat.nnz_v();
  in.nnz_w = plan.flat.nnz_w();
  in.variant = plan.variant;
  // Kernel precedence: the plan's recorded choice, then the config, then
  // the cpuid-dispatched default; blocking is the rounded runtime blocking.
  const BlockingParams bp =
      resolve_blocking(plan_config(plan, cfg), plan.dtype);
  in.mc = static_cast<double>(bp.mc);
  in.kc = static_cast<double>(bp.kc);
  in.nc = static_cast<double>(bp.nc);
  in.mr = bp.mr;
  in.nr = bp.nr;
  return in;
}

double predict_time(const ModelInput& in, const ModelParams& p) {
  return predict_breakdown(in, p).total();
}

ModelBreakdown predict_breakdown(const ModelInput& in, const ModelParams& p) {
  // Submatrix dimensions of the flattened algorithm.
  const double ms = in.m / in.Mt;
  const double ks = in.k / in.Kt;
  const double ns = in.n / in.Nt;

  // Register-tile padding: packed edge panels are zero-filled to full
  // mr x nr tiles, so the micro-kernel arithmetic covers the padded dims.
  // The fused loop runs on C^T (src/gemm/fused.h): C's rows pad to nr and
  // its columns to mr.
  const double ms_pad = ceil_ratio(ms, in.nr) * in.nr;
  const double ns_pad = ceil_ratio(ns, in.mr) * in.mr;

  // --- Unit times (Fig. 5, middle table, "L-level" column). ---
  const double Tx_a = 2.0 * ms_pad * ns_pad * ks * p.tau_a;  // one submatrix multiply
  const double TAp_a = 2.0 * ms * ks * p.tau_a;            // one A-submatrix addition
  const double TBp_a = 2.0 * ks * ns * p.tau_a;            // one B-submatrix addition
  const double TCp_a = 2.0 * ms * ns * p.tau_a;            // one C-submatrix update
  // Packing reads A once per call and B once per n_C block of C's rows.
  const double TAx_m = ms * ks * p.tau_b;                          // read A in packing
  const double TBx_m = ns * ks * ceil_ratio(ms, in.nc) * p.tau_b;  // read B in packing
  const double TCx_m = 2.0 * p.lambda * ms * ns * ceil_ratio(ks, in.kc) * p.tau_b;
  const double TAp_m = ms * ks * p.tau_b;  // temp-buffer traffic (Naive)
  const double TBp_m = ns * ks * p.tau_b;
  const double TCp_m = ms * ns * p.tau_b;  // M_r traffic (AB, Naive)

  // --- Operation counts (Fig. 5, bottom table). ---
  const double R = in.RL;
  const double Nx_a = R;
  const double NAp_a = in.nnz_u - R;
  const double NBp_a = in.nnz_v - R;
  const double NCp_a = in.nnz_w;

  double NAx_m = 0, NBx_m = 0, NCx_m = 0, NAp_m = 0, NBp_m = 0, NCp_m = 0;
  switch (in.variant) {
    case Variant::kABC:
      NAx_m = in.nnz_u;
      NBx_m = in.nnz_v;
      NCx_m = in.nnz_w;
      break;
    case Variant::kAB:
      NAx_m = in.nnz_u;
      NBx_m = in.nnz_v;
      NCx_m = R;            // the micro-kernel streams M_r, not the C_p
      NCp_m = 3 * in.nnz_w; // C_p += w M_r: read C, read M, write C
      break;
    case Variant::kNaive:
      NAx_m = R;            // packing reads the temporary T_A once per r
      NBx_m = R;
      NCx_m = R;
      NAp_m = in.nnz_u + R; // forming T_A: read each A_i, write T_A
      NBp_m = in.nnz_v + R;
      NCp_m = 3 * in.nnz_w;
      break;
  }

  ModelBreakdown b{};
  b.t_mul_a = Nx_a * Tx_a;
  b.t_add_a = NAp_a * TAp_a + NBp_a * TBp_a + NCp_a * TCp_a;
  b.t_pack_m = NAx_m * TAx_m + NBx_m * TBx_m;
  b.t_c_m = NCx_m * TCx_m;
  b.t_tmp_m = NAp_m * TAp_m + NBp_m * TBp_m + NCp_m * TCp_m;
  return b;
}

double predict_gemm_time(index_t m, index_t n, index_t k,
                         const GemmConfig& cfg, const ModelParams& p,
                         DType dtype) {
  // Fig. 5, "gemm" column: one multiply, no additions, single packing pass
  // of A, one pass of B per n_C block of C's rows (the loop runs on C^T).
  const BlockingParams bp = resolve_blocking(cfg, dtype);
  const double md = static_cast<double>(m);
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  const double mp = ceil_ratio(md, bp.nr) * bp.nr;  // register-tile padding
  const double np = ceil_ratio(nd, bp.mr) * bp.mr;
  const double ta = 2.0 * mp * np * kd * p.tau_a;
  const double tm =
      md * kd * p.tau_b +
      nd * kd * ceil_ratio(md, static_cast<double>(bp.nc)) * p.tau_b +
      2.0 * p.lambda * md * nd * ceil_ratio(kd, static_cast<double>(bp.kc)) *
          p.tau_b;
  return ta + tm;
}

double predict_effective_gflops(const ModelInput& in, const ModelParams& p) {
  return 2.0 * in.m * in.n * in.k / predict_time(in, p) * 1e-9;
}

ModelParams calibrate(const GemmConfig& cfg) {
  ModelParams p;
  const BlockingParams bp = resolve_blocking(cfg);

  // --- τ_a: the *measured* sustained rate of the resolved micro-kernel on
  // hot panels, from the per-process calibration cache (each
  // registry kernel has its own peak; src/arch/calibrate.h). ---
  p.tau_a = 1.0 / (arch::kernel_gflops(*bp.kernel) * 1e9);

  // --- τ_b: single-thread streaming bandwidth, measured once per process
  // (read-dominated triad; src/arch/calibrate.h). ---
  p.tau_b = arch::measured_tau_b();

  // --- τ_a refinement: sustained arithmetic rate inside the full loop
  // nest.  The paper sets τ_a to 1/peak because its BLIS substrate runs
  // at ~93% of peak; our generic kernel sustains a lower fraction of its
  // hot-panel rate once packing, epilogue and TLB effects bite, so we fit
  // τ_a from a mid-size compute-dominated GEMM (subtracting the modeled
  // memory time with a mid-range λ), never letting it drop below the
  // micro-kernel bound.  λ is then fit exactly as in the paper. ---
  GemmConfig one = cfg;
  one.num_threads = 1;
  // The fits below need the *resolved* blocking (cfg fields may be 0 =
  // auto-derived), not the raw config values.
  const double kc_res = static_cast<double>(bp.kc);
  const double nc_res = static_cast<double>(bp.nc);
  GemmWorkspace ws;
  auto measure_gemm = [&](index_t s) {
    Matrix a = Matrix::random(s, s, 1);
    Matrix b = Matrix::random(s, s, 2);
    Matrix c = Matrix::zero(s, s);
    gemm(c.view(), a.view(), b.view(), ws, one);  // warm up
    return best_time_of(3,
                        [&] { gemm(c.view(), a.view(), b.view(), ws, one); });
  };
  {
    const double s = 1152;
    const double measured = measure_gemm(static_cast<index_t>(s));
    const double tm_mid = s * s * p.tau_b +
                          s * s * ceil_ratio(s, nc_res) * p.tau_b +
                          2.0 * 0.75 * s * s * ceil_ratio(s, kc_res) * p.tau_b;
    const double ta_fit = (measured - tm_mid) / (2.0 * s * s * s);
    p.tau_a = std::max(p.tau_a, ta_fit);
  }
  // --- λ: fit so the modeled GEMM matches a measured single-core GEMM
  // at a second, more memory-sensitive size. ---
  {
    const index_t m = 768, n = 768, k = 768;
    const double measured = measure_gemm(m);
    const double md = m, nd = n, kd = k;
    const double ta = 2.0 * md * nd * kd * p.tau_a;
    const double t_ab = md * kd * p.tau_b +
                        nd * kd * ceil_ratio(md, nc_res) * p.tau_b;
    const double denom = 2.0 * md * nd * ceil_ratio(kd, kc_res) * p.tau_b;
    double lam = (measured - ta - t_ab) / denom;
    p.lambda = std::clamp(lam, 0.5, 1.0);
  }
  return p;
}

ModelParams calibrate(const GemmConfig& cfg, DType dtype) {
  if (dtype == DType::kF64) return calibrate(cfg);
  ModelParams p = default_model_params(dtype);
  const BlockingParams bp = resolve_blocking(cfg, dtype);
  p.tau_a = 1.0 / (arch::kernel_gflops(*bp.kernel) * 1e9);
  p.tau_b = arch::measured_tau_b(dtype);
  return p;
}

index_t recommended_recurse_cutoff(const arch::CacheTopology& topo) {
  const double l3 =
      topo.l3_bytes > 0 ? static_cast<double>(topo.l3_bytes) : 8.0 * (1 << 20);
  const double fit = std::sqrt(l3 / (3.0 * sizeof(double)));
  index_t cutoff = static_cast<index_t>(fit);
  cutoff -= cutoff % 64;
  return std::clamp<index_t>(cutoff, 256, 4096);
}

}  // namespace fmm
