// Kernel-registry tests: every registered micro-kernel must agree with the
// generic reference kernel at its own register tile (including k = 0 and
// large k), dispatch must honor the FMM_KERNEL override and fall back
// sanely, the epilogue must implement the multi-target weighted scatter
// with kernel-size-aware edge masks, and every kernel's C-update entry must
// match its kernel entry followed by the epilogue, bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/core/recursive.h"
#include "src/gemm/gemm.h"
#include "src/gemm/kernel.h"
#include "src/linalg/matrix.h"
#include "src/linalg/ops.h"
#include "src/util/prng.h"

namespace fmm {
namespace {

void random_panels(int mr, int nr, index_t k, std::vector<double>& a,
                   std::vector<double>& b, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  a.resize(static_cast<std::size_t>(mr) * std::max<index_t>(k, 1));
  b.resize(static_cast<std::size_t>(nr) * std::max<index_t>(k, 1));
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
}

// --------------------------------------------------------------------------
// Registry shape and contents.
// --------------------------------------------------------------------------

TEST(KernelRegistry, HasAtLeastThreeKernels) {
  EXPECT_GE(kernel_registry().size(), 3u);
}

TEST(KernelRegistry, PortableIsFirstAndAlwaysSupported) {
  const auto& reg = kernel_registry();
  ASSERT_FALSE(reg.empty());
  EXPECT_STREQ(reg.front().name, "portable");
  EXPECT_TRUE(reg.front().supported());
  EXPECT_FALSE(reg.front().vectorized);
}

TEST(KernelRegistry, EntriesAreWellFormed) {
  for (const KernelInfo& k : kernel_registry()) {
    if (k.dtype == DType::kF64) {
      EXPECT_NE(k.fn, nullptr) << k.name;
      EXPECT_EQ(k.fn_f32, nullptr) << k.name;
      EXPECT_NE(k.update, nullptr) << k.name;
      EXPECT_EQ(k.update_f32, nullptr) << k.name;
      EXPECT_LE(k.mr, kMaxMR) << k.name;
      EXPECT_LE(k.nr, kMaxNR) << k.name;
    } else {
      EXPECT_EQ(k.fn, nullptr) << k.name;
      EXPECT_NE(k.fn_f32, nullptr) << k.name;
      EXPECT_EQ(k.update, nullptr) << k.name;
      EXPECT_NE(k.update_f32, nullptr) << k.name;
      EXPECT_LE(k.mr, kMaxMRF32) << k.name;
      EXPECT_LE(k.nr, kMaxNRF32) << k.name;
    }
    EXPECT_GE(k.mr, 1) << k.name;
    EXPECT_GE(k.nr, 1) << k.name;
    EXPECT_GT(k.flops_per_cycle, 0.0) << k.name;
    EXPECT_EQ(find_kernel(k.name, k.dtype), &k) << k.name;
  }
}

TEST(KernelRegistry, BothDtypeFamiliesArePresent) {
  std::size_t f64 = 0, f32 = 0;
  for (const KernelInfo& k : kernel_registry()) {
    (k.dtype == DType::kF64 ? f64 : f32)++;
  }
  EXPECT_GE(f64, 3u);
  EXPECT_GE(f32, 3u);
  // The two portable entries share the name but not the cache key.
  const KernelInfo* p64 = find_kernel("portable", DType::kF64);
  const KernelInfo* p32 = find_kernel("portable", DType::kF32);
  ASSERT_NE(p64, nullptr);
  ASSERT_NE(p32, nullptr);
  EXPECT_NE(p64, p32);
  EXPECT_NE(kernel_cache_key(*p64), kernel_cache_key(*p32));
  EXPECT_EQ(kernel_cache_key(*p64), "portable");  // persisted-cache compat
}

TEST(KernelRegistry, ContainsMultipleRegisterTiles) {
  // The family must offer at least two distinct (mR, nR) tiles, else
  // plan-level kernel selection has nothing to choose between.
  bool has_8x6 = false, has_other = false;
  for (const KernelInfo& k : kernel_registry()) {
    if (k.mr == 8 && k.nr == 6) has_8x6 = true;
    if (k.mr != 8 || k.nr != 6) has_other = true;
  }
  EXPECT_TRUE(has_8x6);
  EXPECT_TRUE(has_other);
}

// --------------------------------------------------------------------------
// Equivalence: every registered kernel against the generic reference.
// --------------------------------------------------------------------------

// The sweep instantiates this many registry indices; the ones past the
// registry's end skip.
constexpr int kSweptKernels = 12;

TEST(KernelRegistry, FitsTheEquivalenceSweep) {
  EXPECT_LE(kernel_registry().size(), static_cast<std::size_t>(kSweptKernels))
      << "widen kSweptKernels so the k sweep covers every kernel";
}

class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KernelEquivalence, MatchesGenericReference) {
  const int kernel_idx = std::get<0>(GetParam());
  const index_t k = std::get<1>(GetParam());
  const auto& reg = kernel_registry();
  if (kernel_idx >= static_cast<int>(reg.size())) {
    GTEST_SKIP() << "fewer than " << kernel_idx + 1 << " kernels registered";
  }
  const KernelInfo& kern = reg[static_cast<std::size_t>(kernel_idx)];
  if (!kern.supported()) {
    GTEST_SKIP() << kern.name << " not supported by this CPU";
  }
  if (kern.dtype == DType::kF32) {
    std::vector<double> ad, bd;
    random_panels(kern.mr, kern.nr, k, ad, bd, 100 + 7 * kernel_idx + k);
    std::vector<float> a(ad.begin(), ad.end()), b(bd.begin(), bd.end());
    alignas(64) float acc[kMaxAccElemsF32];
    alignas(64) float ref[kMaxAccElemsF32];
    for (auto& v : acc) v = 99.0f;  // k = 0 must overwrite, not accumulate
    kern.fn_f32(k, a.data(), b.data(), acc);
    microkernel_generic(kern.mr, kern.nr, k, a.data(), b.data(), ref);
    for (int i = 0; i < kern.mr * kern.nr; ++i) {
      EXPECT_NEAR(acc[i], ref[i], 1e-4f * std::max<double>(1.0, k))
          << kern.name << " index " << i << " k " << k;
    }
    return;
  }
  std::vector<double> a, b;
  random_panels(kern.mr, kern.nr, k, a, b, 100 + 7 * kernel_idx + k);
  alignas(64) double acc[kMaxAccElems];
  alignas(64) double ref[kMaxAccElems];
  for (auto& v : acc) v = 99.0;  // k = 0 must overwrite, not accumulate
  kern.fn(k, a.data(), b.data(), acc);
  microkernel_generic(kern.mr, kern.nr, k, a.data(), b.data(), ref);
  for (int i = 0; i < kern.mr * kern.nr; ++i) {
    EXPECT_NEAR(acc[i], ref[i], 1e-12 * std::max<double>(1.0, k))
        << kern.name << " index " << i << " k " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsKSweep, KernelEquivalence,
    ::testing::Combine(::testing::Range(0, kSweptKernels),
                       ::testing::Values(0, 1, 2, 3, 7, 8, 16, 17, 64, 255,
                                         256, 1000)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "kernel" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Kernel, ComputesOuterProductAccumulation) {
  // k=2 hand check on the portable 8x6 tile:
  // acc[j*MR+r] = a0[r] b0[j] + a1[r] b1[j].
  constexpr int MR = 8, NR = 6;
  std::vector<double> a(2 * MR), b(2 * NR);
  for (int r = 0; r < MR; ++r) {
    a[r] = r + 1;
    a[MR + r] = 10 * (r + 1);
  }
  for (int j = 0; j < NR; ++j) {
    b[j] = j + 1;
    b[NR + j] = -(j + 1);
  }
  const KernelInfo* portable = find_kernel("portable");
  ASSERT_NE(portable, nullptr);
  ASSERT_EQ(portable->mr, MR);
  ASSERT_EQ(portable->nr, NR);
  alignas(64) double acc[MR * NR];
  portable->fn(2, a.data(), b.data(), acc);
  for (int r = 0; r < MR; ++r) {
    for (int j = 0; j < NR; ++j) {
      const double want = (r + 1.0) * (j + 1.0) + 10.0 * (r + 1) * -(j + 1.0);
      EXPECT_DOUBLE_EQ(acc[j * MR + r], want);
    }
  }
}

// --------------------------------------------------------------------------
// Dispatch: cpuid default, FMM_KERNEL override, fallback diagnostics.
// --------------------------------------------------------------------------

TEST(KernelDispatch, ActiveKernelIsSupported) {
  const KernelInfo& k = active_kernel();
  EXPECT_TRUE(k.supported());
  EXPECT_NE(find_kernel(k.name), nullptr);
}

TEST(KernelDispatch, FindKernelByName) {
  EXPECT_NE(find_kernel("portable"), nullptr);
  EXPECT_EQ(find_kernel("no_such_kernel"), nullptr);
}

TEST(KernelDispatch, ResolvePinsNamedKernel) {
  std::string diag;
  const KernelInfo& k = resolve_kernel("portable", &diag);
  EXPECT_STREQ(k.name, "portable");
  EXPECT_TRUE(diag.empty());
}

TEST(KernelDispatch, ResolveUnknownNameFallsBackWithDiagnostic) {
  std::string diag;
  const KernelInfo& k = resolve_kernel("bogus_kernel", &diag);
  EXPECT_TRUE(k.supported());
  EXPECT_FALSE(diag.empty());
  EXPECT_NE(diag.find("bogus_kernel"), std::string::npos);
}

TEST(KernelDispatch, ResolveEmptyPicksBestSupported) {
  // Per element type: no supported registry entry of the same dtype may
  // out-rank the default choice.
  for (DType dtype : {DType::kF64, DType::kF32}) {
    const KernelInfo& k = resolve_kernel(nullptr, dtype);
    EXPECT_TRUE(k.supported());
    EXPECT_EQ(k.dtype, dtype);
    for (const KernelInfo& other : kernel_registry()) {
      if (other.dtype == dtype && other.supported()) {
        EXPECT_LE(other.flops_per_cycle, k.flops_per_cycle) << other.name;
      }
    }
  }
}

TEST(KernelDispatch, EnvOverrideForcesPortable) {
  // resolve_active_kernel re-reads FMM_KERNEL on every call, so the
  // override path is testable without forking a process.
  const char* saved = std::getenv("FMM_KERNEL");
  const std::string saved_copy = saved ? saved : "";
  ASSERT_EQ(setenv("FMM_KERNEL", "portable", 1), 0);
  const KernelInfo& k = resolve_active_kernel();
  EXPECT_STREQ(k.name, "portable");
  EXPECT_FALSE(k.vectorized);
  if (saved) {
    setenv("FMM_KERNEL", saved_copy.c_str(), 1);
  } else {
    unsetenv("FMM_KERNEL");
  }
}

TEST(KernelDispatch, EnvOverrideUnknownNameFallsBack) {
  const char* saved = std::getenv("FMM_KERNEL");
  const std::string saved_copy = saved ? saved : "";
  ASSERT_EQ(setenv("FMM_KERNEL", "not_a_kernel", 1), 0);
  std::string diag;
  const KernelInfo& k = resolve_active_kernel(&diag);
  EXPECT_TRUE(k.supported());
  EXPECT_FALSE(diag.empty());
  if (saved) {
    setenv("FMM_KERNEL", saved_copy.c_str(), 1);
  } else {
    unsetenv("FMM_KERNEL");
  }
}

// --------------------------------------------------------------------------
// Epilogue: weighted scatter with kernel-size-aware edge masks, at both
// stride pairs.  (ldc, 1), the legacy spelling, writes block row r
// into C row r; (1, ldc), the fused loop's, writes block column j into C
// row j.  Every test runs both: an EpilogueTarget holds a C of the
// matching shape and maps block element (r, j) to its C element.
// --------------------------------------------------------------------------

struct EpilogueTarget {
  EpilogueTarget(bool transposed_, int mr, int nr)
      : transposed(transposed_),
        c(transposed_ ? nr : mr, transposed_ ? mr : nr) {}
  double& operator()(int r, int j) { return transposed ? c(j, r) : c(r, j); }

  bool transposed;
  Matrix c;
};

void apply_epilogue(bool transposed, const OutTerm* targets, int num,
                    index_t ldc, index_t m_sub, index_t n_sub,
                    const double* acc, int mr, int nr,
                    bool accumulate = true) {
  if (transposed) {
    epilogue_update(targets, num, /*rs=*/1, /*cs=*/ldc, m_sub, n_sub, acc, mr,
                    nr, accumulate);
  } else {
    epilogue_update(targets, num, ldc, m_sub, n_sub, acc, mr, nr, accumulate);
  }
}

const char* stride_pair(bool transposed) {
  return transposed ? "(rs, cs) = (1, ldc)" : "(rs, cs) = (ldc, 1)";
}

TEST(Epilogue, SingleTargetFullBlock) {
  constexpr int MR = 8, NR = 6;
  alignas(64) double acc[MR * NR];
  for (int j = 0; j < NR; ++j)
    for (int r = 0; r < MR; ++r) acc[j * MR + r] = 100.0 * r + j;
  for (bool transposed : {false, true}) {
    SCOPED_TRACE(stride_pair(transposed));
    EpilogueTarget c(transposed, MR, NR);
    c.c.fill(1.0);
    OutTerm t{c.c.data(), 1.0};
    apply_epilogue(transposed, &t, 1, c.c.stride(), MR, NR, acc, MR, NR);
    for (int r = 0; r < MR; ++r)
      for (int j = 0; j < NR; ++j)
        EXPECT_DOUBLE_EQ(c(r, j), 1.0 + 100.0 * r + j);
  }
}

TEST(Epilogue, MaskedEdgeBlockLeavesOutsideUntouched) {
  constexpr int MR = 8, NR = 6;
  alignas(64) double acc[MR * NR];
  for (auto& v : acc) v = 5.0;
  for (bool transposed : {false, true}) {
    SCOPED_TRACE(stride_pair(transposed));
    EpilogueTarget c(transposed, MR, NR);
    c.c.fill(0.0);
    OutTerm t{c.c.data(), 1.0};
    apply_epilogue(transposed, &t, 1, c.c.stride(), 3, 2, acc, MR, NR);
    for (int r = 0; r < MR; ++r) {
      for (int j = 0; j < NR; ++j) {
        EXPECT_DOUBLE_EQ(c(r, j), (r < 3 && j < 2) ? 5.0 : 0.0);
      }
    }
  }
}

TEST(Epilogue, FullTileSplitIsKernelSizeAware) {
  // Regression for an old hard-coded 8x6 full-tile path: with a 4x12
  // kernel, a tile with full rows but masked columns (m_sub == mr,
  // n_sub < nr) must leave the out-of-range columns untouched.
  constexpr int MR = 4, NR = 12;
  alignas(64) double acc[MR * NR];
  for (auto& v : acc) v = 7.0;
  for (bool transposed : {false, true}) {
    SCOPED_TRACE(stride_pair(transposed));
    EpilogueTarget c(transposed, MR, NR);
    c.c.fill(0.0);
    OutTerm t{c.c.data(), 1.0};
    apply_epilogue(transposed, &t, 1, c.c.stride(), MR, 5, acc, MR, NR);
    for (int r = 0; r < MR; ++r) {
      for (int j = 0; j < NR; ++j) {
        EXPECT_DOUBLE_EQ(c(r, j), j < 5 ? 7.0 : 0.0) << r << "," << j;
      }
    }
  }
}

TEST(Epilogue, NonDefaultTileFullBlockAndMask) {
  // The 4x12 tile end-to-end: the full block and row masking use the acc
  // leading dimension mr = 4, not the historical 8.
  constexpr int MR = 4, NR = 12;
  alignas(64) double acc[MR * NR];
  for (int j = 0; j < NR; ++j)
    for (int r = 0; r < MR; ++r) acc[j * MR + r] = 10.0 * r + j;
  for (bool transposed : {false, true}) {
    SCOPED_TRACE(stride_pair(transposed));
    EpilogueTarget full(transposed, MR, NR);
    full.c.fill(0.0);
    OutTerm tf{full.c.data(), 2.0};
    apply_epilogue(transposed, &tf, 1, full.c.stride(), MR, NR, acc, MR, NR);
    for (int r = 0; r < MR; ++r)
      for (int j = 0; j < NR; ++j)
        EXPECT_DOUBLE_EQ(full(r, j), 2.0 * (10.0 * r + j));

    EpilogueTarget masked(transposed, MR, NR);
    masked.c.fill(0.0);
    OutTerm tm{masked.c.data(), 1.0};
    apply_epilogue(transposed, &tm, 1, masked.c.stride(), 3, NR, acc, MR, NR);
    for (int r = 0; r < MR; ++r)
      for (int j = 0; j < NR; ++j)
        EXPECT_DOUBLE_EQ(masked(r, j), r < 3 ? 10.0 * r + j : 0.0);
  }
}

TEST(Epilogue, MultiTargetWeightedScatter) {
  // The ABC variant's core trick: one register block feeds several C_p
  // with different coefficients.
  constexpr int MR = 8, NR = 6;
  alignas(64) double acc[MR * NR];
  for (auto& v : acc) v = 2.0;
  for (bool transposed : {false, true}) {
    SCOPED_TRACE(stride_pair(transposed));
    EpilogueTarget c0(transposed, MR, NR), c1(transposed, MR, NR),
        c2(transposed, MR, NR);
    for (EpilogueTarget* c : {&c0, &c1, &c2}) c->c.fill(0.0);
    OutTerm ts[3] = {{c0.c.data(), 1.0}, {c1.c.data(), -1.0},
                     {c2.c.data(), 0.5}};
    apply_epilogue(transposed, ts, 3, c0.c.stride(), MR, NR, acc, MR, NR);
    EXPECT_DOUBLE_EQ(c0(4, 3), 2.0);
    EXPECT_DOUBLE_EQ(c1(4, 3), -2.0);
    EXPECT_DOUBLE_EQ(c2(4, 3), 1.0);
  }
}

TEST(Epilogue, AccumulatesOnRepeat) {
  constexpr int MR = 8, NR = 6;
  alignas(64) double acc[MR * NR];
  for (auto& v : acc) v = 1.0;
  for (bool transposed : {false, true}) {
    SCOPED_TRACE(stride_pair(transposed));
    EpilogueTarget c(transposed, MR, NR);
    c.c.fill(0.0);
    OutTerm t{c.c.data(), 3.0};
    apply_epilogue(transposed, &t, 1, c.c.stride(), MR, NR, acc, MR, NR);
    apply_epilogue(transposed, &t, 1, c.c.stride(), MR, NR, acc, MR, NR);
    EXPECT_DOUBLE_EQ(c(0, 0), 6.0);
  }
}

TEST(Epilogue, OverwriteModeIgnoresPriorContents) {
  constexpr int MR = 4, NR = 12;
  alignas(64) double acc[MR * NR];
  for (auto& v : acc) v = 3.0;
  for (bool transposed : {false, true}) {
    SCOPED_TRACE(stride_pair(transposed));
    EpilogueTarget c(transposed, MR, NR);
    c.c.fill(123.0);
    OutTerm t{c.c.data(), 2.0};
    apply_epilogue(transposed, &t, 1, c.c.stride(), MR, NR, acc, MR, NR,
                   /*accumulate=*/false);
    for (int r = 0; r < MR; ++r)
      for (int j = 0; j < NR; ++j) EXPECT_DOUBLE_EQ(c(r, j), 6.0);
  }
}

// --------------------------------------------------------------------------
// C-update entry: the one the fused loop calls must be each kernel's fn
// followed by epilogue_update at (rs, cs) = (1, ldc), bit for bit.  That
// pins every kernel's register-level update to the scalar epilogue's
// arithmetic (product rounded, then added: no FMA) and its masked edge
// tiles to the m_sub x n_sub bounds.
// --------------------------------------------------------------------------

template <typename T>
void expect_update_matches_fn_then_epilogue(const KernelInfo& kern) {
  SCOPED_TRACE(std::string(kern.name) + " " + dtype_name(kern.dtype));
  const int mr = kern.mr, nr = kern.nr;
  const index_t k = 37;
  Xoshiro256 rng(static_cast<std::uint64_t>(mr * 100 + nr));
  auto random = [&](index_t size) {
    std::vector<T> v(static_cast<std::size_t>(size));
    for (T& x : v) x = static_cast<T>(rng.uniform(-1, 1));
    return v;
  };
  const std::vector<T> a = random(mr * k), b = random(nr * k);
  alignas(64) T acc[kMaxAccElemsOf<T>];
  kernel_fn<T>(kern)(k, a.data(), b.data(), acc);
  const auto update = kernel_update_fn<T>(kern);
  ASSERT_NE(update, nullptr);

  // Each target is nr rows of ldc elements; the elements past m_sub and
  // the rows past n_sub must keep their bits.
  const index_t ldc = mr + 5;
  const index_t block = nr * ldc;
  // The catalog's usual coefficients make every product w * acc exact, so
  // only the second set, whose products round, can tell a fused update
  // from a separate product and add.
  const double coeff_sets[2][3] = {{1.0, -1.0, 0.5}, {1.0 / 3, -0.7, 2.9}};
  // Full, one row short, and (for the two-vector tiles) one vector plus
  // one lane, exactly one vector, one lane.
  for (const index_t m_sub : {index_t{mr}, index_t{mr - 1},
                              index_t{mr / 2 + 1}, index_t{mr / 2},
                              index_t{1}}) {
    for (const index_t n_sub : {index_t{nr}, index_t{nr - 1}, index_t{1}}) {
      for (const bool accumulate : {true, false}) {
        for (const auto& coeffs : coeff_sets) {
          for (int num = 1; num <= 3; ++num) {
            SCOPED_TRACE("m_sub=" + std::to_string(m_sub) +
                         " n_sub=" + std::to_string(n_sub) +
                         " accumulate=" + std::to_string(accumulate) +
                         " w0=" + std::to_string(coeffs[0]) +
                         " targets=" + std::to_string(num));
            std::vector<T> want = random(num * block);
            std::vector<T> got = want;
            OutTermT<T> to_want[3], to_got[3];
            for (int t = 0; t < num; ++t) {
              to_want[t] = {want.data() + t * block, coeffs[t]};
              to_got[t] = {got.data() + t * block, coeffs[t]};
            }
            epilogue_update(to_want, num, /*rs=*/1, /*cs=*/ldc, m_sub, n_sub,
                            acc, mr, nr, accumulate);
            update(k, a.data(), b.data(), to_got, num, ldc, m_sub, n_sub,
                   accumulate);
            EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                  want.size() * sizeof(T)),
                      0);
          }
        }
      }
    }
  }
}

TEST(KernelUpdate, MatchesFnThenEpilogueBitwise) {
  for (const KernelInfo& kern : kernel_registry()) {
    if (!kern.supported()) continue;
    if (kern.dtype == DType::kF64) {
      expect_update_matches_fn_then_epilogue<double>(kern);
    } else {
      expect_update_matches_fn_then_epilogue<float>(kern);
    }
  }
}

// --------------------------------------------------------------------------
// End-to-end: every registered+supported kernel drives a full gemm
// correctly (packing, blocking round-up, and epilogue must hold for every
// tile, not just the historical 8x6).
// --------------------------------------------------------------------------

TEST(KernelRegistry, EveryKernelProducesSameGemmResult) {
  for (const KernelInfo& kern : kernel_registry()) {
    if (!kern.supported()) continue;
    if (kern.dtype != DType::kF64) continue;  // f32 twin lives in test_f32.cc
    GemmConfig cfg;
    cfg.kernel = &kern;
    cfg.num_threads = 1;
    const index_t m = 37, n = 29, k = 41;  // prime-ish: edge tiles everywhere
    Matrix a = Matrix::random(m, k, 7);
    Matrix b = Matrix::random(k, n, 8);
    Matrix c = Matrix::zero(m, n);
    Matrix want = Matrix::zero(m, n);
    gemm(c.view(), a.view(), b.view(), cfg);
    ref_gemm(want.view(), a.view(), b.view());
    EXPECT_LE(max_abs_diff(c.view(), want.view()), 1e-12 * k) << kern.name;
  }
}

TEST(KernelRegistry, PlanKernelHonoredByBothDrivers) {
  // Plan::kernel must reach the fused loops through the flat executor AND
  // every leaf of a recursive descent, its GEMM leaves and fringes included
  // (regression: the descent ran those on the engine config's kernel).
  // Odd dimensions, so the one-step descent has fringe pieces.
  const Plan base = make_plan({catalog::best(2, 2, 2)}, Variant::kABC);
  const index_t m = 53, n = 45, k = 37;
  Matrix a = Matrix::random(m, k, 17);
  Matrix b = Matrix::random(k, n, 18);
  Matrix want = Matrix::zero(m, n);
  ref_gemm(want.view(), a.view(), b.view());
  Engine::Options ro;
  ro.recurse_cutoff = 8;  // below min(m, n, k): one step of a one-level plan
  ro.workers = 2;
  Engine recursive(ro);
  for (const KernelInfo& kern : kernel_registry()) {
    if (!kern.supported()) continue;
    if (kern.dtype != DType::kF64) continue;  // f32 twin lives in test_f32.cc
    Plan plan = base;
    plan.kernel = &kern;
    Matrix c_data = Matrix::zero(m, n);
    ASSERT_TRUE(
        default_engine().multiply(plan, c_data.view(), a.view(), b.view())
            .ok());
    EXPECT_LE(max_abs_diff(c_data.view(), want.view()), 1e-11 * k)
        << "flat executor, " << kern.name;

    Matrix c_task = Matrix::zero(m, n);
    const std::uint64_t runs0 = recursive.stats().recursive_runs;
    ASSERT_TRUE(
        recursive.multiply(plan, c_task.view(), a.view(), b.view()).ok());
    EXPECT_EQ(recursive.stats().recursive_runs, runs0 + 1);
    EXPECT_LE(max_abs_diff(c_task.view(), want.view()), 1e-10 * k)
        << "recursive driver, " << kern.name;

    // The oracle: the same step run inline (no pool), every leaf a GEMM on
    // the pinned kernel.
    BufferPool buffers;
    RecursiveExec ctx;
    ctx.buffers = &buffers;
    ctx.cutoff = ro.recurse_cutoff;
    ctx.leaf = [&kern](const Plan* leaf_plan, MatView cv, ConstMatView av,
                       ConstMatView bv) {
      ASSERT_EQ(leaf_plan, nullptr);  // one level fully consumed
      GemmConfig cfg;
      cfg.kernel = &kern;
      cfg.num_threads = 1;
      gemm(cv, av, bv, cfg);
    };
    Matrix c_oracle = Matrix::zero(m, n);
    ASSERT_TRUE(
        submit_recursive(ctx, plan, c_oracle.view(), a.view(), b.view())
            .status()
            .ok());
    EXPECT_EQ(std::memcmp(c_task.data(), c_oracle.data(),
                          static_cast<std::size_t>(m * n) * sizeof(double)),
              0)
        << "recursive driver leaves must run " << kern.name;
  }
}

}  // namespace
}  // namespace fmm
