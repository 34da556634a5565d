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
// apples-to-apples.  It is the one loop nest of the tree: every product a
// compiled executor runs goes through it, shared-B batch items included
// (they pass their prepacked B~, see b_packed below).
//
// The loop runs on the transposed problem C^T = B^T A^T (BLIS's induced
// transposition for row-stored C).  The micro-kernel's mR x nR block is
// column-major, so a kernel column of mR accumulators is mR contiguous
// elements of one C row: the i_r loop streams along C rows, and the
// kernel's C-update entry (kernel.h) adds each column into unit-stride row
// segments whose 64-byte lines (two per row for the 128-byte rows of the
// AVX-512 tiles) are prefetched before the call, so they arrive while its
// k loop runs.  Loop roles:
//   * j_c walks C's rows (A's rows) in n_C blocks; A~ = sum_i u_i A_i is
//     packed into the shared k_C x n_C buffer in nR-row panels;
//   * p_c walks k in k_C blocks;
//   * i_c walks C's columns in m_C blocks; each participant packs
//     B~ = sum_j v_j B_j into its own m_C x k_C tile in mR-column panels
//     (or reads the tile from a caller's prepacked B~);
//   * j_r (nR rows of C) and i_r (mR columns of C) drive the kernel.
// Each C element still sums its k products in the same order, so the
// orientation does not change a single bit of the result.
//
// Parallelism mirrors the paper (§5.1, citing Smith et al. IPDPS'14):
// data parallelism over the 3rd loop around the micro-kernel (the i_c
// loop), with cooperative packing of the shared A~ buffer and a
// per-participant B~ tile, run as one TaskPool::parallel_region per call
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

  T* a_panels() { return a_panels_.data(); }
  T* b_tile(int thread) { return b_tiles_[thread].data(); }
  TermScratch& terms(int thread) { return term_scratch_[thread]; }
  int num_threads() const { return static_cast<int>(b_tiles_.size()); }

 private:
  AlignedBuffer<T> a_panels_;                  // kc x nc: A~, nr-row panels
  std::vector<AlignedBuffer<T>> b_tiles_;      // mc x kc per thread: B~
  std::vector<TermScratch> term_scratch_;      // one per thread
};

extern template class GemmWorkspaceT<double>;
extern template class GemmWorkspaceT<float>;

using GemmWorkspace = GemmWorkspaceT<double>;
using GemmWorkspaceF32 = GemmWorkspaceT<float>;

// Resolves cfg.num_threads (0 -> std::thread::hardware_concurrency(), at
// least 1).
int resolve_threads(const GemmConfig& cfg);

// How one call divides its work among `threads` participants.  By default
// the i_c loop carries the parallelism, and m_C shrinks (to an mR
// multiple, never growing) so its column blocks fill whole rounds of the
// team: with rounds = ceil(ceil(n / m_C) / threads), m_C becomes
// mR * ceil(n / (mR * rounds * threads)).  A 4-thread call on n = 2880 at
// m_C = 512 runs 8 blocks of 368 in two full rounds, not 6 blocks (5 x 512
// + 320) whose second round leaves two participants idle; when n yields
// fewer blocks than threads (small FMM submatrices), the same formula
// gives each participant one block (a thinner B~ tile still lives
// comfortably in L2).  Only when even mR-wide tiles cannot feed half the
// threads does the 2nd loop (j_r) take over, with a cooperatively packed
// shared B~ tile, at two barriers per tile.  An empty C (n <= 0) keeps
// m_C.
struct LoopMode {
  index_t mc = 0;            // the i_c loop's step (a multiple of mr)
  bool jr_parallel = false;  // the j_r loop carries the parallelism
};
LoopMode choose_loop_mode(index_t n, index_t mc, int mr, int threads);
// n yields fewer m_C column blocks than threads (threads > 1): too few to
// feed the team from the i_c loop at full width.  A compiled executor's
// batch of such problems runs its items in parallel instead.
bool too_few_column_blocks(index_t n, index_t mc, int threads);

// With accumulate == true (the default), every target receives
// C_t += w_t * product; with accumulate == false the first k-block
// overwrites (C_t = w_t * product), which lets callers stream into an
// uninitialized temporary without a separate zero-fill pass.
//
// `b_packed`, when non-null, is B~ = sum_j v_j B_j for the whole k x n
// sum, already packed by pack_b at width mR as one k_C block (k must not
// exceed the resolved k_C).  The i_c and j_r loops then read their tiles
// there (the tile of C columns [ic, ic + m_C) starts at b_packed + ic * k)
// instead of packing them, and b_terms is not read.  A compiled executor's
// shared-B batch packs each product's B~ once this way and runs every item
// through this loop nest.
template <typename T>
void fused_multiply(index_t m, index_t n, index_t k,
                    const LinTermT<T>* a_terms, int num_a, index_t lda,
                    const LinTermT<T>* b_terms, int num_b, index_t ldb,
                    const OutTermT<T>* c_terms, int num_c, index_t ldc,
                    GemmWorkspaceT<T>& ws, const GemmConfig& cfg,
                    bool accumulate = true, const T* b_packed = nullptr);

extern template void fused_multiply<double>(
    index_t, index_t, index_t, const LinTerm*, int, index_t, const LinTerm*,
    int, index_t, const OutTerm*, int, index_t, GemmWorkspace&,
    const GemmConfig&, bool, const double*);
extern template void fused_multiply<float>(
    index_t, index_t, index_t, const LinTermF32*, int, index_t,
    const LinTermF32*, int, index_t, const OutTermF32*, int, index_t,
    GemmWorkspaceF32&, const GemmConfig&, bool, const float*);

}  // namespace fmm
