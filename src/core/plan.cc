#include "src/core/plan.h"

#include <stdexcept>

#include "src/core/transforms.h"
#include "src/gemm/blocking.h"
#include "src/gemm/kernel.h"

namespace fmm {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kNaive:
      return "Naive";
    case Variant::kAB:
      return "AB";
    case Variant::kABC:
      return "ABC";
  }
  return "?";
}

std::string Plan::name() const {
  std::string s;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i) s += "+";
    s += levels[i].dims_string();
  }
  s += " ";
  s += variant_name(variant);
  // The selected kernel, when one is pinned, so bench CSVs and logs
  // identify what actually ran: "<2,2,2>+<2,3,2> ABC [avx2_8x6]".
  if (kernel != nullptr) {
    s += " [";
    s += kernel->name;
    s += "]";
  }
  // Only the non-default element type is spelled out, keeping historical
  // f64 names (and everything keyed on them) unchanged.
  if (dtype != DType::kF64) {
    s += " ";
    s += dtype_name(dtype);
  }
  return s;
}

bool same_execution(const Plan& a, const Plan& b) {
  const FmmAlgorithm& x = a.flat;
  const FmmAlgorithm& y = b.flat;
  return a.variant == b.variant && a.kernel == b.kernel &&
         a.dtype == b.dtype && x.mt == y.mt && x.kt == y.kt && x.nt == y.nt &&
         x.R == y.R && x.U == y.U && x.V == y.V && x.W == y.W;
}

GemmConfig plan_config(const Plan& plan, const GemmConfig& cfg) {
  GemmConfig run = cfg;
  if (plan.kernel != nullptr) run.kernel = plan.kernel;
  return run;
}

Plan make_plan(std::vector<FmmAlgorithm> levels, Variant variant) {
  if (levels.empty()) {
    throw std::invalid_argument("make_plan: at least one level required");
  }
  for (const auto& l : levels) {
    if (!l.shape_ok()) {
      throw std::invalid_argument("make_plan: malformed algorithm " + l.name);
    }
  }
  Plan plan;
  plan.flat = levels[0];
  for (std::size_t i = 1; i < levels.size(); ++i) {
    plan.flat = kronecker(plan.flat, levels[i]);
  }
  plan.levels = std::move(levels);
  plan.variant = variant;
  return plan;
}

Plan make_uniform_plan(const FmmAlgorithm& alg, int num_levels,
                       Variant variant) {
  std::vector<FmmAlgorithm> levels(static_cast<std::size_t>(num_levels), alg);
  return make_plan(std::move(levels), variant);
}

}  // namespace fmm
