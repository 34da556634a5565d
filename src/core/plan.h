#pragma once

// A Plan is an executable multi-level FMM algorithm: the per-level
// algorithm choices (possibly different per level — "hybrid partitions",
// paper §5.2), the Kronecker-flattened coefficients (paper §3.4–3.5), and
// the execution variant (paper §4.1):
//
//   Naive : explicit temporaries for Σ u A_i, Σ v B_j and M_r.
//   AB    : the A/B sums are fused into packing; M_r is an explicit buffer.
//   ABC   : AB plus the multi-target C update fused into the micro-kernel
//           epilogue — no temporaries at all.

#include <string>
#include <vector>

#include "src/core/algorithm.h"
#include "src/gemm/dtype.h"

namespace fmm {

struct KernelInfo;  // src/gemm/kernel.h
struct GemmConfig;  // src/gemm/blocking.h

enum class Variant { kNaive, kAB, kABC };

const char* variant_name(Variant v);

struct Plan {
  std::vector<FmmAlgorithm> levels;  // outermost first
  FmmAlgorithm flat;                 // ⟦⊗U_l, ⊗V_l, ⊗W_l⟧
  Variant variant = Variant::kABC;

  // Micro-kernel this plan should execute with (points into the registry);
  // nullptr defers to the config / the cpuid-dispatched default.  The
  // model-guided selector fills this per problem shape (selector.h).
  const KernelInfo* kernel = nullptr;

  // Element type this plan executes in, a runtime property like the kernel.
  // The Engine's typed entry points stamp it from the argument type, so a
  // plan handed to multiply(float*, ...) always compiles an f32 executor;
  // a non-null `kernel` must be of the same dtype.
  DType dtype = DType::kF64;

  int Mt() const { return flat.mt; }  // Π m̃_l
  int Kt() const { return flat.kt; }  // Π k̃_l
  int Nt() const { return flat.nt; }  // Π ñ_l
  int R() const { return flat.R; }    // Π R_l

  int num_levels() const { return static_cast<int>(levels.size()); }

  // e.g. "<2,2,2>+<2,3,2> ABC" for a two-level hybrid.
  std::string name() const;
};

// Exact match on everything a compiled executor's arithmetic depends on:
// the flat algorithm (dims + coefficients), variant, requested kernel, and
// element type.
// Comparing the coefficient vectors outright costs the same order of work
// as one per-call U/V/W term gather, with no fingerprint-collision risk —
// this is the equality side of the Engine's executor-cache key (the hash
// side lives in engine.cc).
bool same_execution(const Plan& a, const Plan& b);

// The config an execution of `plan` runs under: `cfg`, with the plan's
// pinned kernel, when it has one, in place of the config's.
GemmConfig plan_config(const Plan& plan, const GemmConfig& cfg);

// Builds a plan from per-level algorithms (outermost first).  Validates
// shapes; the Kronecker flattening is performed eagerly.
Plan make_plan(std::vector<FmmAlgorithm> levels, Variant variant);

// Convenience: L homogeneous levels of the same algorithm.
Plan make_uniform_plan(const FmmAlgorithm& alg, int num_levels,
                       Variant variant);

}  // namespace fmm
