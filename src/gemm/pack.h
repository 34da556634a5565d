#pragma once

// Packing routines with fused linear combinations (paper Fig. 1, right:
// "Pack X + Y -> A~", "Pack V + W -> B~").
//
// Layouts match BLIS, parameterized on a panel width w:
//  * pack_a transposes: ceil(m/w) panels of the m x k sum; panel p holds
//    rows [p*w, p*w+w) column-major within the panel, i.e.
//    out[p*w*k + kk*w + r].
//  * pack_b copies rows: ceil(n/w) panels of the k x n sum; panel q holds
//    cols [q*w, q*w+w) row-major within the panel, i.e.
//    out[q*w*k + kk*w + c].
// Partial edge panels are zero-padded to full width so the micro-kernel
// never needs edge cases; the epilogue masks the stores instead.
//
// The fused loop (fused.h) runs on the transposed problem C^T = B^T A^T,
// so each packer feeds the kernel operand of the other name:
//  * pack_a / pack_a_panel at width nR fill the k_C x n_C buffer with
//    sum_i u_i A_i: one nR-panel per nR rows of C (the kernel's B side);
//  * pack_b / pack_b_panel at width mR fill an m_C x k_C tile with
//    sum_j v_j B_j: one mR-panel per mR columns of C (the kernel's A side).
//
// Everything is templated on the element type (the dtype is a runtime plan
// property; see src/gemm/dtype.h) with explicit double/float instantiations
// in pack.cc — headers stay declaration-only.

#include "src/gemm/blocking.h"
#include "src/gemm/term.h"

namespace fmm {

// Packs sum_i terms[i].coeff * terms[i].ptr[0:m, 0:k] (row stride `lda`)
// into `out` in the pack_a layout described above, w rows per panel.
template <typename T>
void pack_a(const LinTermT<T>* terms, int num_terms, index_t lda, index_t m,
            index_t k, int w, T* out);

// Packs one w-row panel p of the sum (rows [p*w, min(m, p*w+w))) into
// out_panel (= base + p*w*k).  Splitting per panel lets threads cooperate
// on the shared buffer.
template <typename T>
void pack_a_panel(const LinTermT<T>* terms, int num_terms, index_t lda,
                  index_t m, index_t k, int w, index_t p, T* out_panel);

// Packs one w-wide column panel q of sum_j terms[j] (row stride `ldb`,
// logical shape k x n) into out_panel (= base + q*w*k of the full buffer).
// Splitting per panel lets threads cooperate on a shared tile when the
// problem has too few column blocks to parallelize the i_c loop.
template <typename T>
void pack_b_panel(const LinTermT<T>* terms, int num_terms, index_t ldb,
                  index_t k, index_t n, int w, index_t q, T* out_panel);

// Packs all panels of B (single-threaded).
template <typename T>
void pack_b(const LinTermT<T>* terms, int num_terms, index_t ldb, index_t k,
            index_t n, int w, T* out);

extern template void pack_a<double>(const LinTerm*, int, index_t, index_t,
                                    index_t, int, double*);
extern template void pack_a<float>(const LinTermF32*, int, index_t, index_t,
                                   index_t, int, float*);
extern template void pack_a_panel<double>(const LinTerm*, int, index_t,
                                          index_t, index_t, int, index_t,
                                          double*);
extern template void pack_a_panel<float>(const LinTermF32*, int, index_t,
                                         index_t, index_t, int, index_t,
                                         float*);
extern template void pack_b_panel<double>(const LinTerm*, int, index_t,
                                          index_t, index_t, int, index_t,
                                          double*);
extern template void pack_b_panel<float>(const LinTermF32*, int, index_t,
                                         index_t, index_t, int, index_t,
                                         float*);
extern template void pack_b<double>(const LinTerm*, int, index_t, index_t,
                                    index_t, int, double*);
extern template void pack_b<float>(const LinTermF32*, int, index_t, index_t,
                                   index_t, int, float*);

}  // namespace fmm
