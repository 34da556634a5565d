#pragma once

// Public GEMM entry points built on the fused driver.
//
//   gemm(C, A, B, ...)    : C += A * B   (the "BLIS" baseline of the paper)
//   ref_gemm(C, A, B)     : slow, obviously-correct reference for tests
//
// Each entry point comes in f64 (MatView) and f32 (MatViewF32) flavors; the
// f32 overloads route through the same fused driver instantiated on float
// and dispatch to that dtype's kernel family.

#include "src/gemm/fused.h"
#include "src/linalg/mat_view.h"

namespace fmm {

// C += A * B through the high-performance fused driver.
void gemm(MatView c, ConstMatView a, ConstMatView b, GemmWorkspace& ws,
          const GemmConfig& cfg = GemmConfig{});
void gemm(MatViewF32 c, ConstMatViewF32 a, ConstMatViewF32 b,
          GemmWorkspaceF32& ws, const GemmConfig& cfg = GemmConfig{});

// Convenience overload with its own workspace (tests, one-off calls).
void gemm(MatView c, ConstMatView a, ConstMatView b,
          const GemmConfig& cfg = GemmConfig{});
void gemm(MatViewF32 c, ConstMatViewF32 a, ConstMatViewF32 b,
          const GemmConfig& cfg = GemmConfig{});

// Naive triple-loop C += A * B (rows split across a hardware-concurrency
// TaskPool region).  The ground truth used by the test suite; no packing,
// no blocking, no surprises.
void ref_gemm(MatView c, ConstMatView a, ConstMatView b);
void ref_gemm(MatViewF32 c, ConstMatViewF32 a, ConstMatViewF32 b);

}  // namespace fmm
