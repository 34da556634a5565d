#pragma once

// Model-guided poly-algorithm selection (paper §4.4, Fig. 8).
//
// Given a problem size and shape, rank a space of candidate plans by the
// performance model; because fringe effects ("unexpected drops … caused by
// the problem sizes not being divisible by the partition dimensions",
// §4.4) are not captured by the model, the paper measures the top-2 model
// candidates empirically and keeps the winner.  select_empirical()
// implements exactly that.

#include <vector>

#include "src/core/plan.h"
#include "src/gemm/blocking.h"
#include "src/model/perf_model.h"

namespace fmm {

struct Candidate {
  Plan plan;
  double predicted_seconds = 0;
  double predicted_gflops = 0;
  double measured_seconds = -1;  // filled by select_empirical
};

// The default search space: every Fig. 2 partition at one level, the
// strongest partitions at two (homogeneous) levels, and the paper's hybrid
// two-level combinations, for each requested variant.
std::vector<Plan> default_plan_space(const std::vector<Variant>& variants,
                                     int max_levels = 2);

// Cheapest supported registry kernel of the given element type and of
// active_kernel(dtype)'s ISA for an interior sub-problem of shape ms x ns
// (x ks): minimizes padded-tile flops over the kernel's *calibrated*
// throughput (measured once per process and cached, src/arch/calibrate.h;
// the static registry hint is only the FMM_CALIBRATE=0 fallback).  Other
// ISAs are not ranked: one calibration taken while the host is busy must
// not move every plan of the process onto a narrower vector unit.  The
// fused loop runs on C^T, so the ms rows pad to nR: a tile that pads them
// more than 2x ranks after every tile that does not, and a tile narrower
// than the default's (avx512_16x6 beside avx512_16x12) is ranked only for
// rows the default pads more than 2x (4 rows fill a third of a 12-wide
// tile).  Honors an FMM_KERNEL override for that dtype (then the override
// wins outright); when cfg pins a kernel the caller should skip scoring
// entirely.
const KernelInfo* best_kernel_for_shape(index_t ms, index_t ns, index_t ks,
                                        DType dtype = DType::kF64);

// Ranks `plans` by predicted time for (m, n, k); ascending time.  For each
// candidate the per-plan kernel is scored against the plan's submatrix
// shape (restricted to kernels of `dtype`) and recorded in
// Candidate::plan.kernel (unless cfg.kernel pins one); the candidate plan
// is stamped with `dtype` either way.
std::vector<Candidate> rank_by_model(index_t m, index_t n, index_t k,
                                     const std::vector<Plan>& plans,
                                     const ModelParams& params,
                                     const GemmConfig& cfg,
                                     DType dtype = DType::kF64);

// Paper §4.4: takes the best `top_k` model candidates, measures each on
// synthetic operands of the given size, and returns them re-ranked by
// measured time (winner first).
std::vector<Candidate> select_empirical(index_t m, index_t n, index_t k,
                                        const std::vector<Plan>& plans,
                                        const ModelParams& params,
                                        const GemmConfig& cfg, int top_k = 2,
                                        int reps = 2);

}  // namespace fmm
