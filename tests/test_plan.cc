// Plan tests: Kronecker flattening of multi-level (and hybrid) plans,
// naming, and validation.

#include <gtest/gtest.h>

#include "src/core/catalog.h"
#include "src/core/plan.h"
#include "src/core/transforms.h"
#include "src/gemm/kernel.h"

namespace fmm {
namespace {

TEST(Plan, OneLevelIsTheAlgorithmItself) {
  const FmmAlgorithm s = make_strassen();
  const Plan p = make_plan({s}, Variant::kABC);
  EXPECT_EQ(p.Mt(), 2);
  EXPECT_EQ(p.Kt(), 2);
  EXPECT_EQ(p.Nt(), 2);
  EXPECT_EQ(p.R(), 7);
  EXPECT_EQ(p.flat.U, s.U);
  EXPECT_EQ(p.num_levels(), 1);
}

TEST(Plan, TwoLevelStrassenIsKroneckerSquare) {
  const FmmAlgorithm s = make_strassen();
  const Plan p = make_uniform_plan(s, 2, Variant::kABC);
  const FmmAlgorithm want = kronecker(s, s);
  EXPECT_EQ(p.flat.U, want.U);
  EXPECT_EQ(p.flat.V, want.V);
  EXPECT_EQ(p.flat.W, want.W);
  EXPECT_EQ(p.R(), 49);
}

TEST(Plan, HybridLevelsFlattenInOrder) {
  const Plan p = make_plan(
      {catalog::best(2, 2, 2), catalog::best(2, 3, 2)}, Variant::kAB);
  EXPECT_EQ(p.Mt(), 4);
  EXPECT_EQ(p.Kt(), 6);
  EXPECT_EQ(p.Nt(), 4);
  EXPECT_EQ(p.R(), 7 * catalog::best(2, 3, 2).R);
  EXPECT_LT(p.flat.brent_residual(), 1e-9);
}

TEST(Plan, NameEncodesLevelsAndVariant) {
  const Plan p = make_plan(
      {catalog::best(2, 2, 2), catalog::best(3, 3, 3)}, Variant::kNaive);
  EXPECT_EQ(p.name(), "<2,2,2>+<3,3,3> Naive");
}

TEST(Plan, NameAppendsSelectedKernel) {
  Plan p = make_plan({catalog::best(2, 2, 2)}, Variant::kABC);
  EXPECT_EQ(p.name(), "<2,2,2> ABC");  // no kernel pinned: no suffix
  p.kernel = &kernel_registry().front();
  EXPECT_EQ(p.name(), std::string("<2,2,2> ABC [") +
                          kernel_registry().front().name + "]");
}

TEST(Plan, VariantNames) {
  EXPECT_STREQ(variant_name(Variant::kNaive), "Naive");
  EXPECT_STREQ(variant_name(Variant::kAB), "AB");
  EXPECT_STREQ(variant_name(Variant::kABC), "ABC");
}

TEST(Plan, EmptyLevelsThrow) {
  EXPECT_THROW(make_plan({}, Variant::kABC), std::invalid_argument);
}

TEST(Plan, MalformedAlgorithmThrows) {
  FmmAlgorithm broken = make_strassen();
  broken.U.pop_back();
  EXPECT_THROW(make_plan({broken}, Variant::kABC), std::invalid_argument);
}

TEST(Plan, ThreeLevelFlattenedDims) {
  const Plan p = make_uniform_plan(catalog::best(2, 2, 2), 3, Variant::kABC);
  EXPECT_EQ(p.Mt(), 8);
  EXPECT_EQ(p.R(), 343);
}

}  // namespace
}  // namespace fmm
