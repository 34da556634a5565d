#pragma once

// Small dense operations on views: comparisons, error norms, and the dense
// solvers used by the ALS search (Cholesky on small Gram matrices).

#include <vector>

#include "src/linalg/mat_view.h"

namespace fmm {

// max_ij |a(i,j) - b(i,j)|; shapes must match.
double max_abs_diff(ConstMatView a, ConstMatView b);
double max_abs_diff(ConstMatViewF32 a, ConstMatViewF32 b);

// max_ij |a(i,j)|.
double max_abs(ConstMatView a);

// Frobenius-norm relative error ||a-b||_F / max(||b||_F, tiny).
double rel_error_fro(ConstMatView a, ConstMatView b);

// Solves the symmetric positive (semi-)definite system G * x = rhs for
// multiple right-hand sides, in place, via Cholesky with diagonal jitter.
// G is n x n row-major, rhs is n x m row-major (overwritten with solution).
// Returns false if G is too ill-conditioned even after jitter.
bool solve_spd_inplace(std::vector<double>& gram, int n,
                       std::vector<double>& rhs, int nrhs);

}  // namespace fmm
