#ifndef FMM_TESTS_TEST_SUPPORT_H_
#define FMM_TESTS_TEST_SUPPORT_H_

// Shared test support: random-problem builders, tolerance helpers, shape
// tables, and the FMM_FUZZ_ITERS override.  Every test binary links the
// same fmm library; this header is the one place the reference-comparison
// idiom (build random A/B/C, run an engine, compare against ref_gemm) and
// the tolerance model live.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/gemm/gemm.h"
#include "src/linalg/matrix.h"
#include "src/linalg/ops.h"
#include "src/util/env.h"
#include "src/util/prng.h"

namespace fmm {
namespace test {

// --------------------------------------------------------------------------
// Tolerances.
// --------------------------------------------------------------------------

// Classical (non-FMM) GEMM against the naive reference: only the summation
// order differs, so the bound is a small multiple of k * eps.
inline double tol_classical(index_t k) {
  return 1e-12 * std::max<index_t>(k, 1);
}

// FMM against the reference: each level loses a few bits relative to
// classical; this bound is loose enough for validation, tight enough to
// catch wrong coefficients.
inline double tol_for(index_t k, int levels = 1) {
  return 1e-11 * std::max<index_t>(k, 1) * (levels <= 1 ? 1 : 8);
}

// Single-precision twins: same error model scaled from double eps (~1e-16)
// to float eps (~1e-7).  Operands are uniform in [-1, 1], so k * eps is the
// natural growth; the FMM bound adds the same per-level slack as tol_for.
inline double tol_classical_f32(index_t k) {
  return 1e-5 * std::max<index_t>(k, 1);
}

inline double tol_for_f32(index_t k, int levels = 1) {
  return 1e-4 * std::max<index_t>(k, 1) * (levels <= 1 ? 1 : 8);
}

// --------------------------------------------------------------------------
// Random-problem builders.
// --------------------------------------------------------------------------

// A GEMM-shaped problem with random operands.  `c` is the output the engine
// under test writes into and `want` starts as an identical copy for the
// reference path, so C-accumulation (C += A*B) is exercised by default.
struct RandomProblem {
  Matrix a, b, c, want;
};

inline RandomProblem random_problem(index_t m, index_t n, index_t k,
                                    std::uint64_t seed, bool zero_c = false) {
  RandomProblem p{Matrix::random(m, k, seed), Matrix::random(k, n, seed + 1),
                  zero_c ? Matrix::zero(m, n) : Matrix::random(m, n, seed + 2),
                  Matrix()};
  p.want = p.c.clone();
  return p;
}

// The f32 twin.  Matrix is double-only, so the storage is plain vectors; a
// FloatMat is just enough owner to hand out typed views.
struct FloatMat {
  std::vector<float> data;
  index_t rows = 0, cols = 0;

  static FloatMat random(index_t r, index_t c, std::uint64_t seed) {
    FloatMat m{std::vector<float>(static_cast<std::size_t>(r) * c), r, c};
    Xoshiro256 rng(seed);
    for (auto& v : m.data) v = static_cast<float>(rng.uniform(-1, 1));
    return m;
  }
  static FloatMat zero(index_t r, index_t c) {
    return FloatMat{std::vector<float>(static_cast<std::size_t>(r) * c, 0.0f),
                    r, c};
  }
  FloatMat clone() const { return *this; }

  MatViewF32 view() { return MatViewF32(data.data(), rows, cols, cols); }
  ConstMatViewF32 cview() const {
    return ConstMatViewF32(data.data(), rows, cols, cols);
  }
};

struct RandomProblemF32 {
  FloatMat a, b, c, want;
};

inline RandomProblemF32 random_problem_f32(index_t m, index_t n, index_t k,
                                           std::uint64_t seed,
                                           bool zero_c = false) {
  RandomProblemF32 p{
      FloatMat::random(m, k, seed), FloatMat::random(k, n, seed + 1),
      zero_c ? FloatMat::zero(m, n) : FloatMat::random(m, n, seed + 2),
      FloatMat()};
  p.want = p.c.clone();
  return p;
}

// --------------------------------------------------------------------------
// Reference-comparison checkers.
// --------------------------------------------------------------------------

inline void expect_gemm_matches_ref(index_t m, index_t n, index_t k,
                                    const GemmConfig& cfg,
                                    std::uint64_t seed) {
  RandomProblem p = random_problem(m, n, k, seed);
  gemm(p.c.view(), p.a.view(), p.b.view(), cfg);
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_classical(k))
      << "m=" << m << " n=" << n << " k=" << k;
}

inline void expect_fmm_matches_ref(const Plan& plan, index_t m, index_t n,
                                   index_t k, std::uint64_t seed) {
  RandomProblem p = random_problem(m, n, k, seed);
  const Status st =
      default_engine().multiply(plan, p.c.view(), p.a.view(), p.b.view());
  ASSERT_TRUE(st.ok()) << st.to_string();
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()),
            tol_for(k, plan.num_levels()))
      << plan.name() << " at m=" << m << " n=" << n << " k=" << k;
}

// Conventional GEMM as the Engine runs it: the rank-1 <1,1,1> ABC plan.
inline Plan gemm_plan() {
  return make_plan({make_classical(1, 1, 1)}, Variant::kABC);
}

// --------------------------------------------------------------------------
// Shape tables.
// --------------------------------------------------------------------------

// Sizes bracketing a multiple of the tile `t`: exactly one below, exactly
// at, exactly one above, and a prime offset above — the adversarial band
// for dynamic peeling.
inline std::vector<index_t> sizes_around_multiple(index_t t, index_t mult = 4) {
  return {mult * t - 1, mult * t, mult * t + 1, mult * t + 3};
}

// Degenerate problem shapes (empty and one-dimensional): every engine must
// handle these without touching the interior path.
inline std::vector<std::array<index_t, 3>> degenerate_shapes() {
  return {{0, 8, 8},  {8, 0, 8},  {8, 8, 0},  {0, 0, 0},
          {1, 40, 40}, {40, 1, 40}, {40, 40, 1}, {1, 1, 1}};
}

// --------------------------------------------------------------------------
// Fuzzing knobs.
// --------------------------------------------------------------------------

// Iteration count for randomized property tests.  Defaults stay small so
// `ctest -L fuzz` is quick; set FMM_FUZZ_ITERS to run longer campaigns
// (e.g. FMM_FUZZ_ITERS=200 for a soak run).
inline int fuzz_iters(int default_iters) {
  return static_cast<int>(
      parse_env_long("FMM_FUZZ_ITERS", 1, 1L << 30).value_or(default_iters));
}

// Sets (or unsets, for nullptr) an environment variable for one scope and
// restores it on exit: tests mutate process-global state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_ = false;
};

}  // namespace test
}  // namespace fmm

#endif  // FMM_TESTS_TEST_SUPPORT_H_
