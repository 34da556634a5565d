// Performance-model tests (paper §4.2, Fig. 5): the closed-form components
// against hand computations, the coefficient tables per variant, and the
// qualitative predictions §4.3 derives from the model.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/catalog.h"
#include "src/model/perf_model.h"

namespace fmm {
namespace {

ModelParams unit_params() {
  // τ_a = τ_b = 1, λ = 1: components become pure operation counts.
  ModelParams p;
  p.tau_a = 1.0;
  p.tau_b = 1.0;
  p.lambda = 1.0;
  return p;
}

TEST(Model, GemmTimeMatchesHandComputation) {
  // Fig. 5 gemm column with τa=τb=λ=1, extended with register-tile padding
  // on the arithmetic term (edge panels are zero-padded to full tiles).
  // The fused loop runs on C^T: C's rows pad to nR and its columns to mR,
  // A is packed once and B once per n_C block of C's rows:
  //   T = 2*pad(m,nR)*pad(n,mR)*k + mk + nk*ceil(m/nc) + 2mn*ceil(k/kc)
  GemmConfig cfg;
  cfg.kc = 256;
  cfg.nc = 4092;
  cfg.kernel = find_kernel("portable");  // pin the 8x6 tile: deterministic
  ASSERT_NE(cfg.kernel, nullptr);
  // pad(100, 6) = 102, pad(200, 8) = 200, ceil(100/4092) = 1,
  // ceil(300/256) = 2.
  const double want = 2.0 * 102 * 200 * 300 + 100 * 300 + 200 * 300 * 1.0 +
                      2.0 * 100 * 200 * 2.0;
  EXPECT_DOUBLE_EQ(predict_gemm_time(100, 200, 300, cfg, unit_params()), want);
}

TEST(Model, OneLevelStrassenAbcCounts) {
  // Hand-transcription of Fig. 5 for one-level <2,2,2> ABC:
  //   R=7, nnz(U)=nnz(V)=nnz(W)=12; submatrix dims m/2, n/2, k/2.
  const Plan plan = make_plan({make_strassen()}, Variant::kABC);
  GemmConfig cfg;
  cfg.kernel = find_kernel("portable");  // pin the 8x6 tile: deterministic
  ASSERT_NE(cfg.kernel, nullptr);
  const index_t m = 128, n = 256, k = 512;
  const ModelInput in = model_input(plan, m, n, k, cfg);
  EXPECT_EQ(in.RL, 7);
  EXPECT_EQ(in.nnz_u, 12);
  const ModelBreakdown b = predict_breakdown(in, unit_params());
  const double ms = m / 2.0, ns = n / 2.0, ks = k / 2.0;
  // The multiplies run over register-tile-padded submatrices (rows pad to
  // nR, columns to mR): pad(64, 6) = 66, pad(128, 8) = 128.
  EXPECT_DOUBLE_EQ(b.t_mul_a, 7 * 2 * 66 * ns * ks);
  // (12-7) A-additions + (12-7) B-additions + 12 C-updates, 2 flops each.
  EXPECT_DOUBLE_EQ(b.t_add_a, 5 * 2 * ms * ks + 5 * 2 * ks * ns + 12 * 2 * ms * ns);
  // Packing: 12 A-reads, 12 B-reads with ceil(ms/nc)=1.
  EXPECT_DOUBLE_EQ(b.t_pack_m, 12 * ms * ks + 12 * ns * ks);
  // C traffic: 12 targets, 2*lambda*ms*ns*ceil(ks/kc) each.
  EXPECT_DOUBLE_EQ(b.t_c_m, 12 * 2 * ms * ns * std::ceil(ks / 256.0));
  // ABC has no temporary-buffer traffic.
  EXPECT_DOUBLE_EQ(b.t_tmp_m, 0.0);
}

TEST(Model, VariantCoefficientTableFig5) {
  // AB and Naive differ from ABC exactly as the bottom table of Fig. 5
  // prescribes.
  GemmConfig cfg;
  const index_t m = 1024, n = 1024, k = 1024;
  const FmmAlgorithm s = make_strassen();
  const ModelParams p = unit_params();

  const ModelInput abc =
      model_input(make_plan({s}, Variant::kABC), m, n, k, cfg);
  const ModelInput ab = model_input(make_plan({s}, Variant::kAB), m, n, k, cfg);
  const ModelInput nv =
      model_input(make_plan({s}, Variant::kNaive), m, n, k, cfg);

  const auto babc = predict_breakdown(abc, p);
  const auto bab = predict_breakdown(ab, p);
  const auto bnv = predict_breakdown(nv, p);

  // Arithmetic is identical across variants.
  EXPECT_DOUBLE_EQ(babc.t_mul_a, bab.t_mul_a);
  EXPECT_DOUBLE_EQ(babc.t_add_a, bnv.t_add_a);
  // ABC pays nnz(W) C-traffic; AB and Naive pay only R.
  EXPECT_GT(babc.t_c_m, bab.t_c_m);
  EXPECT_DOUBLE_EQ(bab.t_c_m, bnv.t_c_m);
  // AB/Naive pay temporary traffic; ABC pays none.
  EXPECT_DOUBLE_EQ(babc.t_tmp_m, 0.0);
  EXPECT_GT(bnv.t_tmp_m, bab.t_tmp_m);
  // Naive packs only R times (reads the explicit temporaries).
  EXPECT_GT(bab.t_pack_m, bnv.t_pack_m);
}

TEST(Model, EffectiveGflopsInvertsTime) {
  const Plan plan = make_plan({make_strassen()}, Variant::kABC);
  const ModelInput in = model_input(plan, 1000, 1000, 1000, GemmConfig{});
  const ModelParams p;  // defaults
  const double t = predict_time(in, p);
  EXPECT_NEAR(predict_effective_gflops(in, p), 2e9 / t * 1e-9, 1e-9);
}

TEST(Model, AbcWinsRankKUpdates) {
  // §4.3: "when k is small, ABC performs best" (packing amortizes poorly,
  // temporaries dominate the other variants).
  GemmConfig cfg;
  const ModelParams p;  // defaults are fine for a qualitative ordering
  const FmmAlgorithm s = make_strassen();
  const index_t m = 8192, n = 8192, k = 512;
  const double abc =
      predict_time(model_input(make_plan({s}, Variant::kABC), m, n, k, cfg), p);
  const double ab =
      predict_time(model_input(make_plan({s}, Variant::kAB), m, n, k, cfg), p);
  const double naive = predict_time(
      model_input(make_plan({s}, Variant::kNaive), m, n, k, cfg), p);
  EXPECT_LT(abc, ab);
  EXPECT_LT(ab, naive);
}

TEST(Model, OneLevelStrassenBeatsGemmOnLargeSquare) {
  GemmConfig cfg;
  const ModelParams p;
  const index_t s = 8192;
  const double fmm = predict_time(
      model_input(make_plan({make_strassen()}, Variant::kABC), s, s, s, cfg),
      p);
  EXPECT_LT(fmm, predict_gemm_time(s, s, s, cfg, p));
}

TEST(Model, GemmWinsTinyProblems) {
  // With packing overheads and additions, FMM should lose at small sizes.
  GemmConfig cfg;
  const ModelParams p;
  const index_t s = 256;
  const double fmm = predict_time(
      model_input(make_plan({make_strassen()}, Variant::kABC), s, s, s, cfg),
      p);
  EXPECT_GT(fmm, predict_gemm_time(s, s, s, cfg, p));
}

TEST(Model, TwoLevelAmplifiesBothSavingsAndOverheads) {
  GemmConfig cfg;
  const ModelParams p;
  const FmmAlgorithm s = make_strassen();
  const Plan one = make_plan({s}, Variant::kABC);
  const Plan two = make_uniform_plan(s, 2, Variant::kABC);
  // Large square: two-level multiplication term is smaller.
  const auto b1 = predict_breakdown(model_input(one, 16384, 16384, 16384, cfg), p);
  const auto b2 = predict_breakdown(model_input(two, 16384, 16384, 16384, cfg), p);
  EXPECT_LT(b2.t_mul_a, b1.t_mul_a);
  EXPECT_GT(b2.t_add_a, b1.t_add_a);
}

TEST(Model, NaiveBeatsAbcForHighNnzAlgorithmsAtLargeK)
{
  // §4.3's surprise: for <3,6,3>-like algorithms with very large nnz, the
  // repeated packing of AB/ABC outweighs the temporaries of Naive at large
  // sizes.
  GemmConfig cfg;
  const ModelParams p;
  const FmmAlgorithm& alg = catalog::best(3, 6, 3);
  const index_t m = 14400, n = 14400, k = 12000;
  const double abc = predict_time(
      model_input(make_plan({alg}, Variant::kABC), m, n, k, cfg), p);
  const double naive = predict_time(
      model_input(make_plan({alg}, Variant::kNaive), m, n, k, cfg), p);
  EXPECT_LT(naive, abc);
}

TEST(Model, CalibrationProducesSaneParameters) {
  const ModelParams p = calibrate();
  // τ_a: between 1/100 GFLOPS and 1/1 GFLOPS per core.
  EXPECT_GT(p.tau_a, 1e-12);
  EXPECT_LT(p.tau_a, 1e-9);
  // τ_b: between 1/100 GB/s and 1/0.1 GB/s for 8 bytes.
  EXPECT_GT(p.tau_b, 8.0 / 200e9);
  EXPECT_LT(p.tau_b, 8.0 / 0.1e9);
  EXPECT_GE(p.lambda, 0.5);
  EXPECT_LE(p.lambda, 1.0);
}

}  // namespace
}  // namespace fmm
