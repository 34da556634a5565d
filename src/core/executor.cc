#include "src/core/executor.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "src/core/task_pool.h"
#include "src/gemm/kernel.h"
#include "src/gemm/pack.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace fmm {

template <typename T>
void scaled_add(double w, ConstMatViewT<T> src, MatViewT<T> dst, int width) {
  const index_t cols = src.cols();
  const T c = static_cast<T>(w);
  TaskPool::parallel_region(width, [&](Team& team) {
    team.for_each(src.rows(), [&](index_t i) {
      const T* s = src.row(i);
      T* d = dst.row(i);
      for (index_t j = 0; j < cols; ++j) d[j] += c * s[j];
    });
  });
}

template <typename T>
void lin_comb(const LinTermT<T>* terms, int num_terms, index_t lds,
              MatViewT<T> dst, int width) {
  const index_t cols = dst.cols();
  TaskPool::parallel_region(width, [&](Team& team) {
    team.for_each(dst.rows(), [&](index_t i) {
      T* d = dst.row(i);
      {
        const T* s = terms[0].ptr + i * lds;
        const T c = static_cast<T>(terms[0].coeff);
        for (index_t j = 0; j < cols; ++j) d[j] = c * s[j];
      }
      for (int t = 1; t < num_terms; ++t) {
        const T* s = terms[t].ptr + i * lds;
        const T c = static_cast<T>(terms[t].coeff);
        for (index_t j = 0; j < cols; ++j) d[j] += c * s[j];
      }
    });
  });
}

template void scaled_add<double>(double, ConstMatView, MatView, int);
template void scaled_add<float>(double, ConstMatViewF32, MatViewF32, int);
template void lin_comb<double>(const LinTerm*, int, index_t, MatView, int);
template void lin_comb<float>(const LinTermF32*, int, index_t, MatViewF32,
                              int);

std::vector<PeelPiece> peel_pieces(index_t m, index_t n, index_t k,
                                   index_t m1, index_t n1, index_t k1) {
  std::vector<PeelPiece> out;
  // C[0:m1, 0:n1] += A[0:m1, k1:k] B[k1:k, 0:n1]   (k fringe)
  if (k > k1 && m1 > 0 && n1 > 0) out.push_back({0, m1, k1, k, 0, n1});
  // C[0:m1, n1:n] += A[0:m1, 0:k] B[0:k, n1:n]     (n fringe, full k)
  if (n > n1 && m1 > 0) out.push_back({0, m1, 0, k, n1, n});
  // C[m1:m, 0:n] += A[m1:m, 0:k] B[0:k, 0:n]       (m fringe, full k, n)
  if (m > m1) out.push_back({m1, m, 0, k, 0, n});
  return out;
}

// Per-lease workspace: everything one in-flight multiply mutates.  The
// temporaries are dense AlignedBuffers viewed at the interior submatrix
// shape (Matrix stays double-only; executors are typed).
template <typename T>
struct FmmExecutorT<T>::Slot {
  GemmWorkspaceT<T> ws;
  AlignedBuffer<T> m_buf;  // M_r (ms x ns)   (AB, Naive)
  AlignedBuffer<T> ta;     // Σ u_i A_i (ms x ks)  (Naive)
  AlignedBuffer<T> tb;     // Σ v_j B_j (ks x ns)  (Naive)
  // Pre-sized pointer/coefficient staging for one product r.
  std::vector<LinTermT<T>> a_terms, b_terms;
  std::vector<OutTermT<T>> c_terms;
};

template <typename T>
FmmExecutorT<T>::FmmExecutorT(const Plan& plan, index_t m, index_t n,
                              index_t k, const GemmConfig& cfg, int slots)
    : plan_(plan), m_(m), n_(n), k_(k) {
  assert(m >= 0 && n >= 0 && k >= 0);

  obs::TraceScope compile_span("executor.compile", "executor");
  if (compile_span.active()) {
    compile_span.set_argf("%lldx%lldx%lld", static_cast<long long>(m),
                          static_cast<long long>(n),
                          static_cast<long long>(k));
  }

  // The executor's element type is authoritative: a plan handed to the f32
  // executor always executes (and is keyed) as f32.
  plan_.dtype = DTypeOf<T>::value;

  // Resolve the blocking once, with the plan's kernel threaded by value —
  // no GemmConfig is ever mutated after this constructor returns.
  bp_ = resolve_blocking(plan_config(plan_, cfg), plan_.dtype);
  // Clamp the cache blocks to the problem so a small-shape executor carries
  // small workspaces.  The fused loop runs on C^T, so m_C blocks C's
  // columns and n_C its rows.  The clamps never change the loop geometry
  // (each clamped block still covers its dimension in one step whenever
  // the unclamped one did), so arithmetic stays bitwise identical to the
  // unclamped blocking.
  bp_.mc = std::min<index_t>(bp_.mc, round_up(std::max<index_t>(n_, 1), bp_.mr));
  bp_.kc = std::min<index_t>(bp_.kc, std::max<index_t>(k_, 1));
  bp_.nc = std::min<index_t>(bp_.nc, round_up(std::max<index_t>(m_, 1), bp_.nr));
  plan_.kernel = bp_.kernel;  // record what actually runs (name(), plan())

  frozen_cfg_ = cfg;
  frozen_cfg_.kernel = bp_.kernel;
  frozen_cfg_.mc = static_cast<int>(bp_.mc);
  frozen_cfg_.kc = static_cast<int>(bp_.kc);
  frozen_cfg_.nc = static_cast<int>(bp_.nc);
  nth_ = resolve_threads(cfg);
  frozen_cfg_.num_threads = nth_;
  serial_cfg_ = frozen_cfg_;
  serial_cfg_.num_threads = 1;

  // The divisible interior and the fringe GEMMs completing the product.
  m1_ = m_ - m_ % plan_.Mt();
  k1_ = k_ - k_ % plan_.Kt();
  n1_ = n_ - n_ % plan_.Nt();
  if (m1_ <= 0 || k1_ <= 0 || n1_ <= 0) m1_ = k1_ = n1_ = 0;
  for (const PeelPiece& p : peel_pieces(m_, n_, k_, m1_, n1_, k1_)) {
    if (p.m1 > p.m0 && p.n1 > p.n0 && p.k1 > p.k0) peel_.push_back(p);
  }

  // Compile the per-r non-zero term lists of U, V, W into element offsets
  // (block row/col times submatrix size; strides are applied at run time,
  // so operands with different strides can share one executor).
  const FmmAlgorithm& alg = plan_.flat;
  const int R = alg.R;
  a_ofs_.assign(static_cast<std::size_t>(R) + 1, 0);
  b_ofs_.assign(static_cast<std::size_t>(R) + 1, 0);
  c_ofs_.assign(static_cast<std::size_t>(R) + 1, 0);
  if (m1_ > 0) {
    ms_ = m1_ / alg.mt;
    ks_ = k1_ / alg.kt;
    ns_ = n1_ / alg.nt;
    for (int r = 0; r < R; ++r) {
      for (int i = 0; i < alg.rows_u(); ++i) {
        const double coef = alg.u(i, r);
        if (coef != 0.0) {
          a_refs_.push_back({(i / alg.kt) * ms_, (i % alg.kt) * ks_, coef});
        }
      }
      for (int j = 0; j < alg.rows_v(); ++j) {
        const double coef = alg.v(j, r);
        if (coef != 0.0) {
          b_refs_.push_back({(j / alg.nt) * ks_, (j % alg.nt) * ns_, coef});
        }
      }
      for (int p = 0; p < alg.rows_w(); ++p) {
        const double coef = alg.w(p, r);
        if (coef != 0.0) {
          c_refs_.push_back({(p / alg.nt) * ms_, (p % alg.nt) * ns_, coef});
        }
      }
      a_ofs_[r + 1] = static_cast<int>(a_refs_.size());
      b_ofs_[r + 1] = static_cast<int>(b_refs_.size());
      c_ofs_[r + 1] = static_cast<int>(c_refs_.size());
      max_a_ = std::max(max_a_, a_ofs_[r + 1] - a_ofs_[r]);
      max_b_ = std::max(max_b_, b_ofs_[r + 1] - b_ofs_[r]);
      max_c_ = std::max(max_c_, c_ofs_[r + 1] - c_ofs_[r]);
      assert(max_a_ > 0 && max_b_ > 0 && max_c_ > 0);
    }
  }

  // Shared-B batches: viable when the interior covers the whole problem,
  // the ABC variant runs (no M_r scatter) and every product is a single
  // k_C block (fused_multiply's prepacked-B~ contract), within a fixed
  // memory budget for the R packed B~ tiles.
  shared_b_possible_ = plan_.variant == Variant::kABC && m1_ == m_ &&
                       n1_ == n_ && k1_ == k_ && m1_ > 0 && ks_ <= bp_.kc;
  if (shared_b_possible_) {
    shared_b_panel_elems_ = round_up(ns_, bp_.mr) * ks_;
    constexpr index_t kSharedBBudgetElems = (32ll << 20) / sizeof(T);
    if (shared_b_panel_elems_ * R > kSharedBBudgetElems) {
      shared_b_possible_ = false;
      shared_b_panel_elems_ = 0;
    } else {
      shared_b_.resize(static_cast<std::size_t>(shared_b_panel_elems_) * R);
    }
  }

  // The slot pool: `slots` leases for concurrent callers (default: the
  // thread count, which also serves run_batch's item-parallel mode).
  // Every buffer a run can touch is sized here; run() allocates nothing.
  const int pool = slots > 0 ? slots : nth_;
  slots_.reserve(static_cast<std::size_t>(pool));
  for (int s = 0; s < pool; ++s) {
    auto slot = std::make_unique<Slot>();
    slot->ws.ensure(bp_, nth_, std::max(max_a_, 1), std::max(max_b_, 1),
                    std::max(max_c_, 1));
    if (m1_ > 0 && plan_.variant != Variant::kABC) {
      slot->m_buf.resize(static_cast<std::size_t>(ms_) * ns_);
    }
    if (m1_ > 0 && plan_.variant == Variant::kNaive) {
      slot->ta.resize(static_cast<std::size_t>(ms_) * ks_);
      slot->tb.resize(static_cast<std::size_t>(ks_) * ns_);
    }
    slot->a_terms.resize(static_cast<std::size_t>(std::max(max_a_, 1)));
    slot->b_terms.resize(static_cast<std::size_t>(std::max(max_b_, 1)));
    slot->c_terms.resize(static_cast<std::size_t>(std::max(max_c_, 1)));
    free_.push_back(slot.get());
    slots_.push_back(std::move(slot));
  }
}

template <typename T>
FmmExecutorT<T>::~FmmExecutorT() = default;

template <typename T>
std::string FmmExecutorT<T>::name() const { return plan_.name(); }

template <typename T>
auto FmmExecutorT<T>::acquire_slot() -> Slot* {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !free_.empty(); });
  Slot* s = free_.back();
  free_.pop_back();
  return s;
}

template <typename T>
auto FmmExecutorT<T>::try_acquire_slot() -> Slot* {
  std::lock_guard<std::mutex> lk(mu_);
  if (free_.empty()) return nullptr;
  Slot* s = free_.back();
  free_.pop_back();
  return s;
}

template <typename T>
void FmmExecutorT<T>::release_slot(Slot* slot) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    free_.push_back(slot);
  }
  cv_.notify_one();
}

template <typename T>
void FmmExecutorT<T>::run_on_slot(Slot& slot, MatViewT<T> c,
                                  ConstMatViewT<T> a, ConstMatViewT<T> b,
                                  const GemmConfig& cfg, const T* shared_b) {
  assert(c.rows() == m_ && c.cols() == n_ && a.rows() == m_ && a.cols() == k_ &&
         b.rows() == k_ && b.cols() == n_);
  assert(shared_b == nullptr || shared_b_possible_);
  if (m_ == 0 || n_ == 0) return;

  if (m1_ > 0) {
    const index_t lda = a.stride(), ldb = b.stride(), ldc = c.stride();
    const int R = plan_.R();
    LinTermT<T>* a_terms = slot.a_terms.data();
    LinTermT<T>* b_terms = slot.b_terms.data();
    OutTermT<T>* c_terms = slot.c_terms.data();
    const MatViewT<T> m_view(slot.m_buf.data(), ms_, ns_, ns_);
    for (int r = 0; r < R; ++r) {
      const int na = a_ofs_[r + 1] - a_ofs_[r];
      const int nb = b_ofs_[r + 1] - b_ofs_[r];
      const int nc = c_ofs_[r + 1] - c_ofs_[r];
      for (int i = 0; i < na; ++i) {
        const TermRef& t = a_refs_[static_cast<std::size_t>(a_ofs_[r] + i)];
        a_terms[i] = {a.data() + t.row * lda + t.col, t.coeff};
      }
      for (int j = 0; j < nb; ++j) {
        const TermRef& t = b_refs_[static_cast<std::size_t>(b_ofs_[r] + j)];
        b_terms[j] = {b.data() + t.row * ldb + t.col, t.coeff};
      }
      for (int p = 0; p < nc; ++p) {
        const TermRef& t = c_refs_[static_cast<std::size_t>(c_ofs_[r] + p)];
        c_terms[p] = {c.data() + t.row * ldc + t.col, t.coeff};
      }

      switch (plan_.variant) {
        case Variant::kABC: {
          fused_multiply<T>(
              ms_, ns_, ks_, a_terms, na, lda, b_terms, nb, ldb, c_terms, nc,
              ldc, slot.ws, cfg, /*accumulate=*/true,
              shared_b != nullptr ? shared_b + r * shared_b_panel_elems_
                                  : nullptr);
          break;
        }
        case Variant::kAB: {
          // Packing still absorbs the A/B sums; M_r is an explicit buffer
          // (overwritten by the first k-block — no zero-fill pass).
          OutTermT<T> m_out{slot.m_buf.data(), 1.0};
          fused_multiply<T>(ms_, ns_, ks_, a_terms, na, lda, b_terms, nb, ldb,
                            &m_out, 1, ns_, slot.ws, cfg,
                            /*accumulate=*/false);
          for (int p = 0; p < nc; ++p) {
            scaled_add<T>(c_terms[p].coeff, m_view,
                          MatViewT<T>(c_terms[p].ptr, ms_, ns_, ldc),
                          cfg.num_threads);
          }
          break;
        }
        case Variant::kNaive: {
          // Explicit temporaries for the operand sums, then a plain GEMM
          // overwriting M_r.
          lin_comb<T>(a_terms, na, lda,
                      MatViewT<T>(slot.ta.data(), ms_, ks_, ks_),
                      cfg.num_threads);
          lin_comb<T>(b_terms, nb, ldb,
                      MatViewT<T>(slot.tb.data(), ks_, ns_, ns_),
                      cfg.num_threads);
          LinTermT<T> ta{slot.ta.data(), 1.0};
          LinTermT<T> tb{slot.tb.data(), 1.0};
          OutTermT<T> m_out{slot.m_buf.data(), 1.0};
          fused_multiply<T>(ms_, ns_, ks_, &ta, 1, ks_, &tb, 1, ns_, &m_out,
                            1, ns_, slot.ws, cfg, /*accumulate=*/false);
          for (int p = 0; p < nc; ++p) {
            scaled_add<T>(c_terms[p].coeff, m_view,
                          MatViewT<T>(c_terms[p].ptr, ms_, ns_, ldc),
                          cfg.num_threads);
          }
          break;
        }
      }
    }
  }

  for (const PeelPiece& p : peel_) {
    gemm(c.block(p.m0, p.n0, p.m1 - p.m0, p.n1 - p.n0),
         a.block(p.m0, p.k0, p.m1 - p.m0, p.k1 - p.k0),
         b.block(p.k0, p.n0, p.k1 - p.k0, p.n1 - p.n0), slot.ws, cfg);
  }
}

template <typename T>
void FmmExecutorT<T>::run_batch(const BatchAccessT<T>& batch) {
  if (batch.size() == 0) return;
  // Two items writing one C race silently (items execute concurrently in
  // the parallel regime).  Debug builds reject such batches outright.
  assert(distinct_outputs(batch) &&
         "run_batch: two batch items write the same C");
  // The slot wait is outside the timed window: it measures contention on
  // this executor, not the algorithm, and would poison the history.
  Slot* mine = acquire_slot();
  struct Release {
    FmmExecutorT* e;
    Slot* s;
    ~Release() { e->release_slot(s); }
  } rel{this, mine};
  Timer t;
  run_leased(*mine, batch);
  // One observation: `count` multiplies.
  if (hook_) hook_(make_observation(t.seconds(), batch.size()));
}

template <typename T>
void FmmExecutorT<T>::run_leased(Slot& mine, const BatchAccessT<T>& batch) {
  const std::size_t count = batch.size();
  // Items that share one B pack each B~_r once for the whole batch, which
  // pays on any thread count (it removes (count - 1) * R tile packs).  One
  // batch at a time owns the shared tiles; a concurrent caller takes the
  // generic regimes.
  std::unique_lock<std::mutex> shared_lk;
  if (count > 1 && shared_b_possible_ && batch.shares_b()) {
    shared_lk = std::unique_lock<std::mutex>(batch_mu_, std::try_to_lock);
  }
  const bool shared = shared_lk.owns_lock();

  // Sequential items at the frozen width, each with the fused loop's full
  // internal parallelism, unless one multiply yields too few i_c (column)
  // blocks to feed the threads — the fused loop's own criterion for
  // shrinking m_C.  The fused loop sees the interior *submatrix* columns
  // (ns_), not n_; shapes with no interior are all peel, which sees n_.
  const index_t cols_seen = m1_ > 0 ? ns_ : std::max<index_t>(n_, 1);
  if (!shared && (count == 1 || !too_few_column_blocks(cols_seen, bp_.mc,
                                                       nth_))) {
    for (std::size_t i = 0; i < count; ++i) {
      const BatchItemT<T> it = batch.at(i);
      run_on_slot(mine, it.c, it.a, it.b, frozen_cfg_);
    }
    return;
  }

  // One fork-join region whose items are the parallel dimension, each run
  // serially on its participant's slot.  A helper that cannot lease a slot
  // (concurrent callers hold them) skips both loops; the caller's own slot
  // guarantees progress.  A shared B is packed first, one B~_r per index;
  // that loop's barrier publishes the tiles to every item.  Each item
  // walks r = 0..R-1 in order, so results are bitwise identical to run().
  const ConstMatViewT<T> b = batch.at(0).b;
  TaskPool::parallel_region(nth_, [&](Team& team) {
    Slot* s = team.slot() == 0 ? &mine : try_acquire_slot();
    if (s == nullptr) return;
    if (shared) {
      team.for_each(plan_.R(), [&](std::int64_t r) {
        const int nb = b_ofs_[r + 1] - b_ofs_[r];
        for (int j = 0; j < nb; ++j) {
          const TermRef& t = b_refs_[static_cast<std::size_t>(b_ofs_[r] + j)];
          s->b_terms[static_cast<std::size_t>(j)] = {
              b.data() + t.row * b.stride() + t.col, t.coeff};
        }
        pack_b<T>(s->b_terms.data(), nb, b.stride(), ks_, ns_, bp_.mr,
                  shared_b_.data() + r * shared_b_panel_elems_);
      });
    }
    team.for_each(static_cast<std::int64_t>(count), [&](std::int64_t i) {
      const BatchItemT<T> it = batch.at(static_cast<std::size_t>(i));
      run_on_slot(*s, it.c, it.a, it.b, serial_cfg_,
                  shared ? shared_b_.data() : nullptr);
    });
    if (s != &mine) release_slot(s);
  });
}

template class FmmExecutorT<double>;
template class FmmExecutorT<float>;

}  // namespace fmm
