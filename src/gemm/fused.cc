#include "src/gemm/fused.h"

#include <cassert>
#include <thread>

#include "src/core/task_pool.h"
#include "src/gemm/kernel.h"
#include "src/gemm/pack.h"

namespace fmm {

template <typename T>
void GemmWorkspaceT<T>::ensure(const BlockingParams& bp, int num_threads,
                               int num_a, int num_b, int num_c) {
  b_packed_.resize(static_cast<std::size_t>(bp.kc) * bp.nc);
  if (static_cast<int>(a_tiles_.size()) < num_threads) {
    a_tiles_.resize(num_threads);
  }
  for (auto& tile : a_tiles_) {
    tile.resize(static_cast<std::size_t>(bp.mc) * bp.kc);
  }
  if (static_cast<int>(term_scratch_.size()) < num_threads) {
    term_scratch_.resize(num_threads);
  }
  for (auto& ts : term_scratch_) {
    // Grow-only: shrinking a vector never releases capacity, so steady
    // state does no allocation no matter how call shapes interleave.
    if (static_cast<int>(ts.a.size()) < num_a) ts.a.resize(num_a);
    if (static_cast<int>(ts.b.size()) < num_b) ts.b.resize(num_b);
    if (static_cast<int>(ts.c.size()) < num_c) ts.c.resize(num_c);
  }
}

template class GemmWorkspaceT<double>;
template class GemmWorkspaceT<float>;

int resolve_threads(const GemmConfig& cfg) {
  if (cfg.num_threads > 0) return cfg.num_threads;
  // Read once: hardware_concurrency() costs system calls, and this runs on
  // every call of a default-config multiply.
  static const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return hw;
}

namespace {

// Shifts every term's base pointer by a (row, col) block offset.
template <typename T>
void offset_terms(const LinTermT<T>* in, int n, index_t ld, index_t row,
                  index_t col, LinTermT<T>* out) {
  for (int i = 0; i < n; ++i) {
    out[i].ptr = in[i].ptr + row * ld + col;
    out[i].coeff = in[i].coeff;
  }
}

}  // namespace

template <typename T>
void fused_multiply(index_t m, index_t n, index_t k,
                    const LinTermT<T>* a_terms, int num_a, index_t lda,
                    const LinTermT<T>* b_terms, int num_b, index_t ldb,
                    const OutTermT<T>* c_terms, int num_c, index_t ldc,
                    GemmWorkspaceT<T>& ws, const GemmConfig& cfg,
                    bool accumulate) {
  assert(cfg.valid());
  if (m <= 0 || n <= 0 || num_c == 0) return;
  if (k <= 0) {
    if (!accumulate) {
      // C = 0 * anything: the overwrite contract still must clear targets.
      for (int t = 0; t < num_c; ++t) {
        for (index_t i = 0; i < m; ++i) {
          T* row = c_terms[t].ptr + i * ldc;
          for (index_t j = 0; j < n; ++j) row[j] = T(0);
        }
      }
    }
    return;
  }

  const BlockingParams bp = resolve_blocking(cfg, DTypeOf<T>::value);
  const int mr = bp.mr;
  const int nr = bp.nr;
  const auto ukr = kernel_fn<T>(*bp.kernel);
  assert(ukr != nullptr);
  const int nth = resolve_threads(cfg);
  ws.ensure(bp, nth, num_a, num_b, num_c);
  T* bpack = ws.b_packed();

  // Parallelization mode (paper §5.1 / Smith et al. IPDPS'14): by default
  // the 3rd loop around the micro-kernel (i_c) carries the data
  // parallelism.  When m yields fewer row blocks than threads (small FMM
  // submatrices), first shrink m_C so the i_c loop regains enough blocks
  // (cheap: a thinner A-tile still lives comfortably in L2); only when
  // even mR-high tiles cannot feed half the threads fall back to
  // parallelizing the 2nd loop (j_r) with a cooperatively packed shared
  // A-tile, which costs two barriers per tile.
  index_t mc_use = bp.mc;
  if (nth > 1 && ceil_div(m, mc_use) < nth) {
    mc_use = std::max<index_t>(
        mr, ceil_div(ceil_div(m, static_cast<index_t>(nth)), mr) * mr);
  }
  const bool jr_parallel =
      nth > 1 && ceil_div(m, mc_use) < std::max<index_t>(2, nth / 2);

  TaskPool::parallel_region(nth, [&](Team& team) {
    const int tid = team.slot();
    T* apack = ws.a_tile(jr_parallel ? 0 : tid);
    // Pre-sized per-thread scratch (ws.ensure above): no allocation here.
    typename GemmWorkspaceT<T>::TermScratch& scratch = ws.terms(tid);
    LinTermT<T>* a_local = scratch.a.data();
    LinTermT<T>* b_local = scratch.b.data();
    OutTermT<T>* c_local = scratch.c.data();
    alignas(64) T acc[kMaxAccElemsOf<T>];

    // 5th loop: jc over column blocks of width nc.
    for (index_t jc = 0; jc < n; jc += bp.nc) {
      const index_t nc_eff = std::min<index_t>(bp.nc, n - jc);
      // 4th loop: pc over the shared dimension in steps of kc.
      for (index_t pc = 0; pc < k; pc += bp.kc) {
        const index_t kc_eff = std::min<index_t>(bp.kc, k - pc);
        const bool acc_this_block = accumulate || pc > 0;

        // Cooperative pack of B~ = sum_j v_j B_j[pc:, jc:], one nr-wide
        // panel per index.  The loop's barrier publishes the buffer.
        offset_terms<T>(b_terms, num_b, ldb, pc, jc, b_local);
        team.for_each(ceil_div(nc_eff, nr), [&](index_t q) {
          pack_b_panel<T>(b_local, num_b, ldb, kc_eff, nc_eff, nr, q,
                          bpack + q * nr * kc_eff);
        });

        const index_t ic_blocks = ceil_div(m, mc_use);
        if (!jr_parallel) {
          // 3rd loop (i_c) carries the parallelism; A-tiles are private.
          team.for_each(ic_blocks, [&](index_t icb) {
            const index_t ic = icb * mc_use;
            const index_t mc_eff = std::min<index_t>(mc_use, m - ic);
            offset_terms<T>(a_terms, num_a, lda, ic, pc, a_local);
            pack_a<T>(a_local, num_a, lda, mc_eff, kc_eff, mr, apack);

            for (index_t jr = 0; jr < nc_eff; jr += nr) {
              const index_t n_sub = std::min<index_t>(nr, nc_eff - jr);
              const T* bpanel = bpack + (jr / nr) * nr * kc_eff;
              for (index_t ir = 0; ir < mc_eff; ir += mr) {
                const index_t m_sub = std::min<index_t>(mr, mc_eff - ir);
                const T* apanel = apack + (ir / mr) * mr * kc_eff;
                ukr(kc_eff, apanel, bpanel, acc);
                for (int t = 0; t < num_c; ++t) {
                  c_local[t].ptr =
                      c_terms[t].ptr + (ic + ir) * ldc + (jc + jr);
                  c_local[t].coeff = c_terms[t].coeff;
                }
                epilogue_update(c_local, num_c, ldc, m_sub, n_sub, acc,
                                mr, nr, acc_this_block);
              }
            }
          });
          // The barrier: nobody repacks B~ for the next pc while a
          // participant still computes with the old one.
        } else {
          // 2nd-loop (j_r) parallel mode: i_c runs sequentially, each tile
          // packed cooperatively into the shared buffer, then the j_r
          // panels are divided among threads.
          for (index_t icb = 0; icb < ic_blocks; ++icb) {
            const index_t ic = icb * mc_use;
            const index_t mc_eff = std::min<index_t>(mc_use, m - ic);
            offset_terms<T>(a_terms, num_a, lda, ic, pc, a_local);
            team.for_each(ceil_div(mc_eff, mr), [&](index_t p) {
              pack_a_panel<T>(a_local, num_a, lda, mc_eff, kc_eff, mr, p,
                              apack + p * mr * kc_eff);
            });
            // The barrier: the shared A-tile is complete.
            team.for_each(ceil_div(nc_eff, nr), [&](index_t jrb) {
              const index_t jr = jrb * nr;
              const index_t n_sub = std::min<index_t>(nr, nc_eff - jr);
              const T* bpanel = bpack + jrb * nr * kc_eff;
              for (index_t ir = 0; ir < mc_eff; ir += mr) {
                const index_t m_sub = std::min<index_t>(mr, mc_eff - ir);
                const T* apanel = apack + (ir / mr) * mr * kc_eff;
                ukr(kc_eff, apanel, bpanel, acc);
                for (int t = 0; t < num_c; ++t) {
                  c_local[t].ptr =
                      c_terms[t].ptr + (ic + ir) * ldc + (jc + jr);
                  c_local[t].coeff = c_terms[t].coeff;
                }
                epilogue_update(c_local, num_c, ldc, m_sub, n_sub, acc,
                                mr, nr, acc_this_block);
              }
            });
            // The barrier before the shared tile is overwritten.
          }
        }
      }
    }
  });
}

template void fused_multiply<double>(
    index_t, index_t, index_t, const LinTerm*, int, index_t, const LinTerm*,
    int, index_t, const OutTerm*, int, index_t, GemmWorkspace&,
    const GemmConfig&, bool);
template void fused_multiply<float>(
    index_t, index_t, index_t, const LinTermF32*, int, index_t,
    const LinTermF32*, int, index_t, const OutTermF32*, int, index_t,
    GemmWorkspaceF32&, const GemmConfig&, bool);

}  // namespace fmm
