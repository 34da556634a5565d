#pragma once

// Compile-once / run-many FMM execution — the serving path.
//
// Executing a plan means deriving everything shape-dependent: resolving
// blocking against the machine, installing the plan's kernel, gathering
// the non-zero coefficient terms of U, V, W per product r, sizing
// workspaces, and computing the peeling decomposition.  For one big
// multiply that setup is noise; for millions of small-to-medium calls it
// dominates (Benson & Ballard, SC'14: fast-matmul wins at modest sizes
// exactly when framework overheads are amortized).
//
// FmmExecutorT<T> performs that derivation once, at construction, for one
// (plan, m, n, k, config) tuple:
//
//   * blocking resolved and frozen (explicit values beat env re-reads),
//     clamped to the problem so small-shape executors stay small;
//   * the plan's kernel threaded by value — no caller state is mutated;
//   * per-r U/V/W term lists compiled to (row, col, coeff) offsets;
//   * the dynamic-peeling decomposition precomputed;
//   * per-slot workspaces fully sized.
//
// run() then does zero allocation and zero re-derivation, and is safe to
// call from multiple host threads concurrently: each call leases a
// workspace slot from a fixed pool (blocking briefly when more host
// threads than slots arrive).  The arithmetic is fixed at construction:
// repeated runs on the same operands give the same bits.
//
// run_batch() executes many operand triples against the one compiled plan,
// every item through the same per-product fused_multiply calls as run().
// For small shapes (too few i_c column blocks to feed the threads — the
// same criterion the fused loop uses to switch parallel modes) the items
// themselves become the parallel dimension of one fork-join region, each
// executed serially.  Items that share one B operand run in that region
// too: its participants first pack the R per-r B~ tiles once, then every
// item's fused loop reads them instead of packing its own.
//
// The element type T (double or float; see src/gemm/dtype.h) selects which
// kernel family the compiled executor dispatches into; FmmExecutor /
// BatchItem / StridedBatch remain the f64 spellings.  Explicit
// instantiations live in executor.cc.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/plan.h"
#include "src/gemm/gemm.h"
#include "src/linalg/matrix.h"
#include "src/util/aligned_buffer.h"

namespace fmm {

// One sub-multiplication of the dynamic-peeling decomposition.
struct PeelPiece {
  // Half-open element ranges into C, A, B for a plain GEMM
  // C[mr0:mr1, nc0:nc1] += A[mr0:mr1, kr0:kr1] * B[kr0:kr1, nc0:nc1].
  index_t m0, m1, k0, k1, n0, n1;
};

// The dynamic-peeling decomposition for a problem of size (m, n, k) with an
// FMM interior of (m1, n1, k1) = (m - m%Mt, ...): the list of fringe GEMMs
// that complete the product (in order).  Exposed for unit testing.
std::vector<PeelPiece> peel_pieces(index_t m, index_t n, index_t k,
                                   index_t m1, index_t n1, index_t k1);

// dst += w * src, by rows on a team of `width` (the C_p update of the AB
// and Naive variants and of the recursive descent).
template <typename T>
void scaled_add(double w, ConstMatViewT<T> src, MatViewT<T> dst, int width);

// dst = Σ_t coeff_t * src_t, where src_t is the dst-shaped view at
// terms[t].ptr with row stride lds, by rows on a team of `width` (the
// explicit operand sums of the Naive variant and of the recursive
// descent).  Every element is accumulated in term order.
template <typename T>
void lin_comb(const LinTermT<T>* terms, int num_terms, index_t lds,
              MatViewT<T> dst, int width);

// One operand triple of a batch.  Every item must match the executor's
// compiled shape; strides may differ per item.
template <typename T>
struct BatchItemT {
  MatViewT<T> c;
  ConstMatViewT<T> a;
  ConstMatViewT<T> b;
};

// A batch laid out as one base pointer plus a fixed element stride between
// consecutive items, per operand: item i is
//
//   C_i = c + i * stride_c   (m x n, row stride ldc)
//   A_i = a + i * stride_a   (m x k, row stride lda)
//   B_i = b + i * stride_b   (k x n, row stride ldb)
//
// A row stride of 0 means dense (ldc = n, lda = k, ldb = n).  A *batch*
// stride of 0 on A or B means every item shares that operand — stride_b = 0
// is the one-weight-many-activations motif, whose B~ tiles a batch packs
// once for all items.  stride_c = 0 with count > 1 would make every item
// write the same C and is rejected by the Engine validation layer.  The
// items are expanded internally (a view is computed per index on the fly);
// no per-item view array is ever materialized.
template <typename T>
struct StridedBatchT {
  index_t m = 0, n = 0, k = 0;
  std::size_t count = 0;
  T* c = nullptr;
  const T* a = nullptr;
  const T* b = nullptr;
  index_t ldc = 0, lda = 0, ldb = 0;                 // 0 = dense
  index_t stride_c = 0, stride_a = 0, stride_b = 0;  // item-to-item strides
};

using BatchItem = BatchItemT<double>;
using StridedBatch = StridedBatchT<double>;
using BatchItemF32 = BatchItemT<float>;
using StridedBatchF32 = StridedBatchT<float>;

// Uniform indexed access over the two batch layouts: a BatchItem array, or
// a StridedBatch expanded one index at a time (branching on the layout per
// item costs nothing next to a multiply, and no view array is ever
// materialized).  Does not own the operands.
template <typename T>
class BatchAccessT {
 public:
  BatchAccessT() = default;
  BatchAccessT(const BatchItemT<T>* items, std::size_t count)
      : items_(items), count_(count) {}
  // The one place the dense row-stride defaults are filled in; strided()
  // returns the normalized descriptor.
  explicit BatchAccessT(const StridedBatchT<T>& sb)
      : sb_(sb), count_(sb.count) {
    if (sb_.ldc == 0) sb_.ldc = sb_.n;
    if (sb_.lda == 0) sb_.lda = sb_.k;
    if (sb_.ldb == 0) sb_.ldb = sb_.n;
  }

  std::size_t size() const { return count_; }
  const StridedBatchT<T>& strided() const { return sb_; }

  BatchItemT<T> at(std::size_t i) const {
    if (items_ != nullptr) return items_[i];
    const index_t o = static_cast<index_t>(i);
    return {MatViewT<T>(sb_.c + o * sb_.stride_c, sb_.m, sb_.n, sb_.ldc),
            ConstMatViewT<T>(sb_.a + o * sb_.stride_a, sb_.m, sb_.k, sb_.lda),
            ConstMatViewT<T>(sb_.b + o * sb_.stride_b, sb_.k, sb_.n, sb_.ldb)};
  }

  // Every item reads one B (same base and row stride).  A batch stride of
  // 0 on B is the strided layout's encoding of that.
  bool shares_b() const {
    if (items_ == nullptr) return sb_.stride_b == 0;
    for (std::size_t i = 1; i < count_; ++i) {
      if (items_[i].b.data() != items_[0].b.data() ||
          items_[i].b.stride() != items_[0].b.stride()) {
        return false;
      }
    }
    return true;
  }

 private:
  const BatchItemT<T>* items_ = nullptr;  // item layout when non-null
  StridedBatchT<T> sb_;                   // strided layout otherwise
  std::size_t count_ = 0;
};

// True when no two items of `batch` write one C (exact base pointers).
// Items with an empty C write nothing and never clash, whatever their
// pointers.  The Engine rejects a batch that fails this; run_batch asserts
// it in debug builds, since items may run concurrently.
template <typename T>
bool distinct_outputs(const BatchAccessT<T>& batch) {
  std::vector<const T*> ptrs;
  ptrs.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const BatchItemT<T> it = batch.at(i);
    if (!it.c.empty()) ptrs.push_back(it.c.data());
  }
  std::sort(ptrs.begin(), ptrs.end());
  return std::adjacent_find(ptrs.begin(), ptrs.end()) == ptrs.end();
}

// What one observed execution looked like — the payload of the executor
// timing hook (see FmmExecutorT::set_timing_hook).  Shared across element
// types so a consumer (the Engine) can handle both with one function.
struct ExecObservation {
  double seconds = 0.0;
  std::size_t items = 1;    // 1 per run(), the item count per batch
  const char* kernel = "";  // frozen kernel registry name (static string)
  DType dtype = DType::kF64;
  index_t m = 0, n = 0, k = 0;  // compiled shape
};

template <typename T>
class FmmExecutorT {
 public:
  // Compiles `plan` for problems of exactly C (m x n) += A (m x k) *
  // B (k x n) under `cfg`.  `slots` is how many callers can run()
  // concurrently without waiting, fixed for the executor's life; 0 sizes
  // the pool to the resolved thread count (which run_batch's item-parallel
  // mode needs anyway).  The Engine passes one per worker.  A slot's
  // packing buffers are allocated here but touched only by the runs that
  // lease it, so an idle slot holds next to no resident memory.  All
  // allocation happens here.
  explicit FmmExecutorT(const Plan& plan, index_t m, index_t n, index_t k,
                        const GemmConfig& cfg = GemmConfig{}, int slots = 0);
  ~FmmExecutorT();

  FmmExecutorT(const FmmExecutorT&) = delete;
  FmmExecutorT& operator=(const FmmExecutorT&) = delete;

  // Executes every item (C_i += A_i * B_i) against the compiled plan; the
  // one entry every spelling below forwards to.  It leases the caller's
  // workspace slot (outside the timed window), runs the batch, and fires
  // the timing hook once.  Two regimes:
  //   * sequential, each item with the fused loop's full internal
  //     parallelism: a single item, or items whose shape feeds the threads;
  //   * one fork-join region, each item serial on a participant's slot:
  //     items too small to feed the threads from within one multiply, and
  //     every batch whose items share one B when the plan allows it (ABC,
  //     no peel, each product one k_C block, R tiles within a 32 MiB
  //     budget).  Its participants pack the R B~ tiles once, then run the
  //     items on them.
  // Results are bitwise identical to one run() per item.  Operands must
  // match the compiled shape.  Thread-safe; zero allocation, zero
  // re-derivation.  Debug builds assert distinct_outputs (a silently racy
  // batch otherwise).
  void run_batch(const BatchAccessT<T>& batch);

  // C += A * B.
  void run(MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b) {
    const BatchItemT<T> item{c, a, b};
    run_batch(BatchAccessT<T>(&item, 1));
  }
  void run_batch(const BatchItemT<T>* items, std::size_t count) {
    run_batch(BatchAccessT<T>(items, count));
  }
  void run_batch(const std::vector<BatchItemT<T>>& items) {
    run_batch(items.data(), items.size());
  }
  // The strided/interleaved layout: per-index views are computed on the
  // fly from the base pointers; stride_b == 0 is a shared B.
  void run_batch_strided(const StridedBatchT<T>& sb) {
    run_batch(BatchAccessT<T>(sb));
  }

  // Observation hook: called once per run_batch (items == count; a run()
  // is one item) — a batch is one observation of `items` multiplies,
  // never double-counted per item.  The ExecObservation carries
  // everything a consumer needs to attribute the
  // timing (the frozen kernel name, element type, and compiled shape), so
  // one hook serves both the online performance model and the tracing
  // layer (src/obs/trace.h).  The hook runs on the calling thread after
  // the arithmetic finishes and must be cheap and thread-safe (concurrent
  // run() calls invoke it concurrently).  Install before the executor is
  // shared between threads (the Engine installs it right after
  // construction); not synchronized against in-flight runs.
  using TimingHook = std::function<void(const ExecObservation&)>;
  void set_timing_hook(TimingHook hook) { hook_ = std::move(hook); }
  bool has_timing_hook() const { return static_cast<bool>(hook_); }

  const Plan& plan() const { return plan_; }
  index_t m() const { return m_; }
  index_t n() const { return n_; }
  index_t k() const { return k_; }
  // The frozen configuration: resolved blocking (clamped to the problem)
  // and the kernel carried by value.
  const GemmConfig& config() const { return frozen_cfg_; }
  const BlockingParams& blocking() const { return bp_; }
  int threads() const { return nth_; }
  int num_slots() const { return static_cast<int>(slots_.size()); }
  // Plan name including the frozen kernel, e.g. "<2,2,2> ABC [avx2_8x6]".
  std::string name() const;

 private:
  struct Slot;

  // One non-zero coefficient of column r of U/V/W, compiled to the element
  // offset of its operand block: ptr = base + row * stride + col.
  struct TermRef {
    index_t row;
    index_t col;
    double coeff;
  };

  // Fills the hook observation from the frozen compile-time facts.
  ExecObservation make_observation(double seconds, std::size_t items) const {
    ExecObservation o;
    o.seconds = seconds;
    o.items = items;
    o.kernel = bp_.kernel != nullptr ? bp_.kernel->name : "";
    o.dtype = plan_.dtype;
    o.m = m_;
    o.n = n_;
    o.k = k_;
    return o;
  }

  Slot* acquire_slot();
  Slot* try_acquire_slot();
  void release_slot(Slot* slot);
  // The full multiply (interior + peel) on one slot: the only place the
  // executor multiplies an item.  `cfg` is either the frozen config or its
  // serial twin (the batch region).  A non-null `shared_b` is shared_b_,
  // packed from this item's B: product r reads its B~ at
  // shared_b + r * shared_b_panel_elems_ instead of packing it.
  void run_on_slot(Slot& slot, MatViewT<T> c, ConstMatViewT<T> a,
                   ConstMatViewT<T> b, const GemmConfig& cfg,
                   const T* shared_b = nullptr);
  // run_batch's regimes, on the caller's leased slot `mine`.
  void run_leased(Slot& mine, const BatchAccessT<T>& batch);

  Plan plan_;
  index_t m_ = 0, n_ = 0, k_ = 0;
  index_t m1_ = 0, n1_ = 0, k1_ = 0;  // divisible interior (0 if none)
  index_t ms_ = 0, ns_ = 0, ks_ = 0;  // interior submatrix sizes
  GemmConfig frozen_cfg_;   // resolved blocking + kernel, by value
  GemmConfig serial_cfg_;   // frozen_cfg_ with num_threads = 1
  BlockingParams bp_;       // the blocking every run() uses
  int nth_ = 1;             // resolved internal thread count
  std::vector<PeelPiece> peel_;

  // Flattened per-r term lists; terms of product r occupy [ofs[r], ofs[r+1]).
  std::vector<TermRef> a_refs_, b_refs_, c_refs_;
  std::vector<int> a_ofs_, b_ofs_, c_ofs_;
  int max_a_ = 0, max_b_ = 0, max_c_ = 0;  // longest per-r list

  // Workspace slot pool (mutex + condvar lease; run() blocks when empty).
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_;
  std::mutex mu_;
  std::condition_variable cv_;

  // Observation hook (see set_timing_hook).
  TimingHook hook_;

  // Shared-B batches: the R B~ tiles, each the whole ks_ x ns_ sum packed
  // by pack_b in mR-column panels, packed once per batch.
  bool shared_b_possible_ = false;
  index_t shared_b_panel_elems_ = 0;  // elements per r
  AlignedBuffer<T> shared_b_;
  std::mutex batch_mu_;  // one batch at a time owns shared_b_
};

extern template class FmmExecutorT<double>;
extern template class FmmExecutorT<float>;

using FmmExecutor = FmmExecutorT<double>;
using FmmExecutorF32 = FmmExecutorT<float>;

}  // namespace fmm
