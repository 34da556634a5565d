#pragma once

// The fused multiply: the GotoBLAS/BLIS 5-loop GEMM generalized to weighted
// operand lists (paper Fig. 1, right).  One call computes
//
//     for each target t:  C_t += w_t * (sum_i u_i A_i) (sum_j v_j B_j)
//
// where every A_i is an m x k view with common row stride lda (blocks of a
// common parent matrix), every B_j is k x n with stride ldb, and every C_t
// is m x n with stride ldc.  Plain GEMM is the special case of one term per
// list with coefficient 1 — the "BLIS" baseline of every paper figure runs
// through exactly this code path, so FMM-vs-GEMM comparisons are
// apples-to-apples.
//
// Parallelism mirrors the paper (§5.1, citing Smith et al. IPDPS'14):
// data parallelism over the 3rd loop around the micro-kernel (the i_c
// loop), with cooperative packing of the shared B~ panel and a
// per-thread A~ tile, run as one TaskPool::parallel_region per call
// (src/core/task_pool.h) of up to cfg.num_threads participants.
//
// The element type is a template parameter with explicit double/float
// instantiations in fused.cc (the dtype travels at runtime in the kernel —
// see src/gemm/dtype.h); `GemmWorkspace`/`fused_multiply` on plain
// LinTerm/OutTerm remain the f64 spellings used throughout the tree.

#include <vector>

#include "src/gemm/blocking.h"
#include "src/gemm/term.h"
#include "src/util/aligned_buffer.h"

namespace fmm {

// Reusable packing buffers.  Thread-safe to reuse across calls from the
// same thread; not safe to share one workspace between concurrent calls.
template <typename T>
class GemmWorkspaceT {
 public:
  // Per-thread offset copies of the operand/target term lists, so the
  // parallel region of fused_multiply performs no heap allocation per
  // call (small fused calls used to hit the allocator once per thread
  // per call).  Grow-only, like the packing buffers.
  struct TermScratch {
    std::vector<LinTermT<T>> a;
    std::vector<LinTermT<T>> b;
    std::vector<OutTermT<T>> c;
  };

  // Ensures capacity for the given resolved blocking, thread count, and
  // term-list lengths.
  void ensure(const BlockingParams& bp, int num_threads, int num_a,
              int num_b, int num_c);

  T* b_packed() { return b_packed_.data(); }
  T* a_tile(int thread) { return a_tiles_[thread].data(); }
  TermScratch& terms(int thread) { return term_scratch_[thread]; }
  int num_threads() const { return static_cast<int>(a_tiles_.size()); }

 private:
  AlignedBuffer<T> b_packed_;                  // kc x nc
  std::vector<AlignedBuffer<T>> a_tiles_;      // mc x kc per thread
  std::vector<TermScratch> term_scratch_;      // one per thread
};

extern template class GemmWorkspaceT<double>;
extern template class GemmWorkspaceT<float>;

using GemmWorkspace = GemmWorkspaceT<double>;
using GemmWorkspaceF32 = GemmWorkspaceT<float>;

// Resolves cfg.num_threads (0 -> std::thread::hardware_concurrency(), at
// least 1).
int resolve_threads(const GemmConfig& cfg);

// With accumulate == true (the default), every target receives
// C_t += w_t * product; with accumulate == false the first k-block
// overwrites (C_t = w_t * product), which lets callers stream into an
// uninitialized temporary without a separate zero-fill pass.
template <typename T>
void fused_multiply(index_t m, index_t n, index_t k,
                    const LinTermT<T>* a_terms, int num_a, index_t lda,
                    const LinTermT<T>* b_terms, int num_b, index_t ldb,
                    const OutTermT<T>* c_terms, int num_c, index_t ldc,
                    GemmWorkspaceT<T>& ws, const GemmConfig& cfg,
                    bool accumulate = true);

extern template void fused_multiply<double>(
    index_t, index_t, index_t, const LinTerm*, int, index_t, const LinTerm*,
    int, index_t, const OutTerm*, int, index_t, GemmWorkspace&,
    const GemmConfig&, bool);
extern template void fused_multiply<float>(
    index_t, index_t, index_t, const LinTermF32*, int, index_t,
    const LinTermF32*, int, index_t, const OutTermF32*, int, index_t,
    GemmWorkspaceF32&, const GemmConfig&, bool);

}  // namespace fmm
