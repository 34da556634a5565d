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
  a_panels_.resize(static_cast<std::size_t>(bp.kc) * bp.nc);
  if (static_cast<int>(b_tiles_.size()) < num_threads) {
    b_tiles_.resize(num_threads);
  }
  for (auto& tile : b_tiles_) {
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

bool too_few_column_blocks(index_t n, index_t mc, int threads) {
  return threads > 1 && ceil_div(n, mc) < threads;
}

LoopMode choose_loop_mode(index_t n, index_t mc, int mr, int threads) {
  LoopMode mode;
  mode.mc = mc;
  if (threads > 1 && n > 0) {
    // Balance the i_c loop over the team: the fewest rounds of `threads`
    // blocks that m_C allows, then the narrowest mR multiple whose blocks
    // cover n in that many rounds (never wider than m_C).
    const index_t rounds = ceil_div(ceil_div(n, mc), threads);
    mode.mc =
        std::max<index_t>(mr, mr * ceil_div(n, mr * rounds * threads));
  }
  mode.jr_parallel = threads > 1 && ceil_div(n, mode.mc) <
                                        std::max<index_t>(2, threads / 2);
  return mode;
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

// One step of the 2nd loop (j_r) with the 1st (i_r) inside it: the
// nR-row A~ panel `a_panel` (C rows [row, row + rows), rows <= nR) meets
// every mR-column panel of the B~ tile `b_tile` (C columns
// [col, col + cols)), one call of the kernel's C-update entry per tile,
// which applies the block to every target at (rs, cs) = (1, ldc).  Before
// each call the tile's C row segments are prefetched for writing.  Both
// panels span `kc` of the shared dimension; `c_local` is caller-owned room
// for num_c terms.
template <typename T>
void fused_jr_step(const KernelInfo& kernel, index_t kc, const T* a_panel,
                   index_t rows, const T* b_tile, index_t cols,
                   const OutTermT<T>* c_terms, int num_c, index_t ldc,
                   index_t row, index_t col, bool accumulate,
                   OutTermT<T>* c_local) {
  constexpr index_t kLine = 64 / sizeof(T);
  const int mr = kernel.mr;
  const auto update = kernel_update_fn<T>(kernel);
  assert(update != nullptr);
  for (index_t ir = 0; ir < cols; ir += mr) {
    const index_t m_sub = std::min<index_t>(mr, cols - ir);
    for (int t = 0; t < num_c; ++t) {
      c_local[t].ptr = c_terms[t].ptr + row * ldc + col + ir;
      c_local[t].coeff = c_terms[t].coeff;
      // One block row is m_sub elements of a C row: every 64-byte line of
      // it (two for the 128-byte rows of the AVX-512 tiles).
      for (index_t j = 0; j < rows; ++j) {
        for (index_t e = 0; e < m_sub; e += kLine) {
          __builtin_prefetch(c_local[t].ptr + j * ldc + e, /*rw=*/1);
        }
      }
    }
    // The B~ tile's mR-panel is the kernel's A operand, the A~ panel its B
    // operand: block column j is C row `row + j`.
    update(kc, b_tile + ir * kc, a_panel, c_local, num_c, ldc, m_sub, rows,
           accumulate);
  }
}

}  // namespace

template <typename T>
void fused_multiply(index_t m, index_t n, index_t k,
                    const LinTermT<T>* a_terms, int num_a, index_t lda,
                    const LinTermT<T>* b_terms, int num_b, index_t ldb,
                    const OutTermT<T>* c_terms, int num_c, index_t ldc,
                    GemmWorkspaceT<T>& ws, const GemmConfig& cfg,
                    bool accumulate, const T* b_packed) {
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
  assert(b_packed == nullptr || k <= bp.kc);
  const int mr = bp.mr;
  const int nr = bp.nr;
  const int nth = resolve_threads(cfg);
  ws.ensure(bp, nth, num_a, num_b, num_c);
  T* apack = ws.a_panels();
  const LoopMode mode = choose_loop_mode(n, bp.mc, mr, nth);
  const index_t ic_blocks = ceil_div(n, mode.mc);

  TaskPool::parallel_region(nth, [&](Team& team) {
    const int tid = team.slot();
    T* btile = ws.b_tile(mode.jr_parallel ? 0 : tid);
    // Pre-sized per-thread scratch (ws.ensure above): no allocation here.
    typename GemmWorkspaceT<T>::TermScratch& scratch = ws.terms(tid);
    LinTermT<T>* a_local = scratch.a.data();
    LinTermT<T>* b_local = scratch.b.data();
    OutTermT<T>* c_local = scratch.c.data();

    // The nest runs on C^T = B^T A^T (see fused.h): j_c and j_r walk C's
    // rows, i_c and i_r its columns, so every write-back is unit-stride.
    // 5th loop: j_c over C's rows (A's rows) in blocks of n_C.
    for (index_t jc = 0; jc < m; jc += bp.nc) {
      const index_t nc_eff = std::min<index_t>(bp.nc, m - jc);
      // 4th loop: p_c over the shared dimension in steps of k_C.
      for (index_t pc = 0; pc < k; pc += bp.kc) {
        const index_t kc_eff = std::min<index_t>(bp.kc, k - pc);
        const bool acc_this_block = accumulate || pc > 0;

        // Cooperative pack of A~ = sum_i u_i A_i[jc:, pc:], one nR-row
        // panel per index.  The loop's barrier publishes the buffer.
        offset_terms<T>(a_terms, num_a, lda, jc, pc, a_local);
        team.for_each(ceil_div(nc_eff, nr), [&](index_t q) {
          pack_a_panel<T>(a_local, num_a, lda, nc_eff, kc_eff, nr, q,
                          apack + q * nr * kc_eff);
        });

        // C rows [jc + jr, +nR) against the B~ tile of columns
        // [ic, ic + mc_eff).
        auto jr_step = [&](const T* tile, index_t jr, index_t ic,
                           index_t mc_eff) {
          fused_jr_step<T>(*bp.kernel, kc_eff, apack + jr * kc_eff,
                           std::min<index_t>(nr, nc_eff - jr), tile, mc_eff,
                           c_terms, num_c, ldc, jc + jr, ic, acc_this_block,
                           c_local);
        };
        if (!mode.jr_parallel) {
          // 3rd loop (i_c) carries the parallelism; B~ tiles are private.
          team.for_each(ic_blocks, [&](index_t icb) {
            const index_t ic = icb * mode.mc;
            const index_t mc_eff = std::min<index_t>(mode.mc, n - ic);
            const T* tile = btile;
            if (b_packed != nullptr) {
              tile = b_packed + ic * kc_eff;
            } else {
              offset_terms<T>(b_terms, num_b, ldb, pc, ic, b_local);
              pack_b<T>(b_local, num_b, ldb, kc_eff, mc_eff, mr, btile);
            }
            for (index_t jr = 0; jr < nc_eff; jr += nr) {
              jr_step(tile, jr, ic, mc_eff);
            }
          });
          // The barrier: nobody repacks A~ for the next pc while a
          // participant still computes with the old one.
        } else {
          // 2nd-loop (j_r) parallel mode: i_c runs sequentially, each
          // tile packed cooperatively into the shared buffer, then the
          // j_r panels are divided among participants.
          for (index_t icb = 0; icb < ic_blocks; ++icb) {
            const index_t ic = icb * mode.mc;
            const index_t mc_eff = std::min<index_t>(mode.mc, n - ic);
            const T* tile = btile;
            if (b_packed != nullptr) {
              tile = b_packed + ic * kc_eff;
            } else {
              offset_terms<T>(b_terms, num_b, ldb, pc, ic, b_local);
              team.for_each(ceil_div(mc_eff, mr), [&](index_t p) {
                pack_b_panel<T>(b_local, num_b, ldb, kc_eff, mc_eff, mr, p,
                                btile + p * mr * kc_eff);
              });
              // The barrier: the shared B~ tile is complete.
            }
            team.for_each(ceil_div(nc_eff, nr), [&](index_t jrb) {
              jr_step(tile, jrb * nr, ic, mc_eff);
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
    const GemmConfig&, bool, const double*);
template void fused_multiply<float>(
    index_t, index_t, index_t, const LinTermF32*, int, index_t,
    const LinTermF32*, int, index_t, const OutTermF32*, int, index_t,
    GemmWorkspaceF32&, const GemmConfig&, bool, const float*);

}  // namespace fmm
