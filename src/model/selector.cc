#include "src/model/selector.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/arch/calibrate.h"
#include "src/core/catalog.h"
#include "src/core/executor.h"
#include "src/gemm/kernel.h"
#include "src/util/timer.h"

namespace fmm {

std::vector<Plan> default_plan_space(const std::vector<Variant>& variants,
                                     int max_levels) {
  std::vector<Plan> plans;
  for (Variant v : variants) {
    // One level: every Fig. 2 partition.
    for (const auto& d : catalog::figure2_dims()) {
      plans.push_back(
          make_plan({catalog::best(d[0], d[1], d[2])}, v));
    }
    if (max_levels >= 2) {
      // Two homogeneous levels of the partitions the paper carries into its
      // two-level experiments (Figs. 7 and 9).
      for (const auto& d : {std::array<int, 3>{2, 2, 2},
                            std::array<int, 3>{2, 3, 2},
                            std::array<int, 3>{3, 2, 3},
                            std::array<int, 3>{3, 3, 3}}) {
        const auto& alg = catalog::best(d[0], d[1], d[2]);
        plans.push_back(make_uniform_plan(alg, 2, v));
      }
      // The paper's hybrid partitions (§5.2).
      plans.push_back(make_plan(
          {catalog::best(2, 2, 2), catalog::best(2, 3, 2)}, v));
      plans.push_back(make_plan(
          {catalog::best(2, 2, 2), catalog::best(3, 3, 3)}, v));
    }
  }
  return plans;
}

const KernelInfo* best_kernel_for_shape(index_t ms, index_t ns, index_t ks,
                                        DType dtype) {
  const KernelInfo& active = active_kernel(dtype);
  if (kernel_override_active(dtype)) return &active;
  const double msd = static_cast<double>(std::max<index_t>(ms, 1));
  const double nsd = static_cast<double>(std::max<index_t>(ns, 1));
  const double ksd = static_cast<double>(std::max<index_t>(ks, 1));
  // Rows the default tile pads more than 2x (see selector.h).
  const bool short_rows = std::ceil(msd / active.nr) * active.nr > 2.0 * msd;
  const KernelInfo* best = nullptr;
  std::pair<bool, double> best_rank;  // (pads rows more than 2x, cost)
  for (const KernelInfo& kern : kernel_registry()) {
    if (kern.dtype != dtype || !kern.supported()) continue;
    if (std::strcmp(kern.isa, active.isa) != 0) continue;
    if (kern.nr < active.nr && !short_rows) continue;
    // Padded-tile multiply flops at the kernel's register tile, over the
    // kernel's *measured* sustained rate (lazily calibrated once per
    // process and cached — src/arch/calibrate.h; the static hint is only
    // the FMM_CALIBRATE=0 fallback).  The same trade the model charges in
    // Tx_a, cheap enough to evaluate for every (plan, kernel) pair.  The
    // fused loop runs on C^T: rows pad to nR, columns to mR.
    const double msp = std::ceil(msd / kern.nr) * kern.nr;
    const double nsp = std::ceil(nsd / kern.mr) * kern.mr;
    const std::pair<bool, double> rank{
        msp > 2.0 * msd, msp * nsp * ksd / arch::kernel_gflops(kern)};
    if (best == nullptr || rank < best_rank) {
      best = &kern;
      best_rank = rank;
    }
  }
  return best;
}

std::vector<Candidate> rank_by_model(index_t m, index_t n, index_t k,
                                     const std::vector<Plan>& plans,
                                     const ModelParams& params,
                                     const GemmConfig& cfg, DType dtype) {
  std::vector<Candidate> out;
  out.reserve(plans.size());
  for (const auto& plan : plans) {
    Candidate c;
    c.plan = plan;
    c.plan.dtype = dtype;
    if (cfg.kernel != nullptr && cfg.kernel->dtype == dtype) {
      c.plan.kernel = cfg.kernel;
    } else {
      c.plan.kernel = best_kernel_for_shape(m / plan.Mt(), n / plan.Nt(),
                                            k / plan.Kt(), dtype);
    }
    const ModelInput in = model_input(c.plan, m, n, k, cfg);
    c.predicted_seconds = predict_time(in, params);
    c.predicted_gflops = predict_effective_gflops(in, params);
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.predicted_seconds < b.predicted_seconds;
  });
  return out;
}

std::vector<Candidate> select_empirical(index_t m, index_t n, index_t k,
                                        const std::vector<Plan>& plans,
                                        const ModelParams& params,
                                        const GemmConfig& cfg, int top_k,
                                        int reps) {
  auto ranked = rank_by_model(m, n, k, plans, params, cfg);
  if (static_cast<int>(ranked.size()) > top_k) ranked.resize(top_k);

  Matrix a = Matrix::random(m, k, 11);
  Matrix b = Matrix::random(k, n, 13);
  Matrix c = Matrix::zero(m, n);
  for (auto& cand : ranked) {
    // Compile once per candidate; the timed loop measures pure run cost,
    // which is what repeated production calls would pay.
    FmmExecutor exec(cand.plan, m, n, k, cfg, /*slots=*/1);
    exec.run(c.view(), a.view(), b.view());  // warm up
    cand.measured_seconds = best_time_of(reps, [&] {
      exec.run(c.view(), a.view(), b.view());
    });
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.measured_seconds < b.measured_seconds;
            });
  return ranked;
}

}  // namespace fmm
