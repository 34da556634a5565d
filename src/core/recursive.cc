#include "src/core/recursive.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/core/executor.h"  // peel_pieces, lin_comb, scaled_add
#include "src/obs/trace.h"

namespace fmm {

namespace {

// Counter tracks sampled on every pool transition while tracing: how many
// leases are out and how much memory the pool has ever held at once.
inline void trace_pool_pressure(std::size_t outstanding, std::size_t bytes) {
  obs::trace_counter("bufpool.outstanding", "recurse",
                     static_cast<std::int64_t>(outstanding));
  obs::trace_counter("bufpool.peak_bytes", "recurse",
                     static_cast<std::int64_t>(bytes));
}

}  // namespace

// ---------------------------------------------------------------------------
// BufferPool.
// ---------------------------------------------------------------------------

void BufferPool::Lease::reset() {
  if (pool_ == nullptr) return;
  BufferPool* p = pool_;
  pool_ = nullptr;
  p->put_back(std::move(buf_));
}

BufferPool::Lease BufferPool::acquire(std::size_t elems) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Smallest sufficient free buffer; a node's products cycle through
    // three sizes, so exact reuse is the common case.
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].size() < elems) continue;
      if (best == free_.size() || free_[i].size() < free_[best].size()) {
        best = i;
      }
    }
    if (best != free_.size()) {
      AlignedBuffer<double> buf = std::move(free_[best]);
      free_[best] = std::move(free_.back());
      free_.pop_back();
      ++outstanding_;
      if (obs::trace_enabled()) trace_pool_pressure(outstanding_, peak_bytes_);
      return Lease(this, std::move(buf));
    }
  }
  // Nothing fits: allocate (outside the lock) instead of waiting — a task
  // blocking here while holding other leases could wedge the pool.
  AlignedBuffer<double> buf(std::max<std::size_t>(elems, 1));
  const std::size_t bytes = buf.size() * sizeof(double);
  std::lock_guard<std::mutex> lk(mu_);
  ++outstanding_;
  live_bytes_ += bytes;
  peak_bytes_ = std::max(peak_bytes_, live_bytes_);
  if (obs::trace_enabled()) trace_pool_pressure(outstanding_, peak_bytes_);
  return Lease(this, std::move(buf));
}

void BufferPool::put_back(AlignedBuffer<double> buf) {
  std::lock_guard<std::mutex> lk(mu_);
  --outstanding_;
  if (free_.size() < kMaxFree) {
    free_.push_back(std::move(buf));
  } else {
    live_bytes_ -= buf.size() * sizeof(double);
  }
  if (obs::trace_enabled()) trace_pool_pressure(outstanding_, peak_bytes_);
}

std::size_t BufferPool::free_buffers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return free_.size();
}

std::size_t BufferPool::outstanding() const {
  std::lock_guard<std::mutex> lk(mu_);
  return outstanding_;
}

std::size_t BufferPool::peak_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return peak_bytes_;
}

// ---------------------------------------------------------------------------
// Descent predicate.
// ---------------------------------------------------------------------------

bool should_recurse(const Plan& plan, index_t m, index_t n, index_t k,
                    index_t cutoff) {
  if (cutoff <= 0 || plan.num_levels() < 1) return false;
  if (m <= cutoff || n <= cutoff || k <= cutoff) return false;
  const FmmAlgorithm& alg = plan.levels.front();
  // A rank-1 step (conventional GEMM, <1,1,1>) has one product and no
  // sums: descending would only add a copy of C.
  if (alg.R == 1) return false;
  // A non-empty divisible interior at the outermost level; anything less
  // is all fringe and belongs to the flat executor.
  return m >= alg.mt && k >= alg.kt && n >= alg.nt;
}

// ---------------------------------------------------------------------------
// Node expansion.  One graph, two schedules: build_node submits every task
// through TaskPool::submit_to, so with ctx.pool null the same tasks run
// inline on the caller in submission order.  prep_product and the per-p
// ascending-r update chains fix the operation sequence per C element,
// which is what makes every schedule, inline included, bitwise identical.
// ---------------------------------------------------------------------------

namespace {

// The BufferPool deals in doubles; a typed lease rounds its byte size up
// to whole doubles so f32 intermediates share the same pool (the 64-byte
// allocation alignment satisfies any element type).
template <typename T>
std::size_t lease_doubles(index_t elems) {
  return (static_cast<std::size_t>(elems) * sizeof(T) + sizeof(double) - 1) /
         sizeof(double);
}

// Shared state of one expanded fast-algorithm step.  Task bodies hold it
// via shared_ptr (std::function requires copyable callables); the per-r
// buffer slots are written by prep tasks and cleared by release tasks, with
// every access ordered by the task dependencies.
template <typename T>
struct Node {
  RecursiveExecT<T> ctx;
  FmmAlgorithm alg;                   // the consumed outermost level
  std::shared_ptr<const Plan> child;  // remaining levels (null: GEMM leaves)
  bool descend = false;               // products recurse one level further
  ConstMatViewT<T> a, b;
  index_t ms = 0, ks = 0, ns = 0;     // quadrant sizes
  int depth = 0;

  struct RBuf {
    BufferPool::Lease s, t, m;
    ConstMatViewT<T> sv, tv;  // S_r / T_r (aliased quadrant or pooled buffer)
    MatViewT<T> mv;           // M_r
  };
  std::vector<RBuf> rb;
};

// Gathers S_r and T_r (aliasing a single +1.0-coefficient quadrant rather
// than copying it) and zeroes M_r into node.rb[r].
template <typename T>
void prep_product(Node<T>& node, int r) {
  const FmmAlgorithm& alg = node.alg;
  typename Node<T>::RBuf& rb = node.rb[static_cast<std::size_t>(r)];
  const index_t ms = node.ms, ks = node.ks, ns = node.ns;
  std::vector<LinTermT<T>> terms;

  const index_t lda = node.a.stride();
  terms.reserve(static_cast<std::size_t>(alg.rows_u()));
  for (int i = 0; i < alg.rows_u(); ++i) {
    const double coef = alg.u(i, r);
    if (coef == 0.0) continue;
    terms.push_back(
        {node.a.data() + (i / alg.kt) * ms * lda + (i % alg.kt) * ks, coef});
  }
  if (terms.size() == 1 && terms[0].coeff == 1.0) {
    rb.sv = ConstMatViewT<T>(terms[0].ptr, ms, ks, lda);
  } else {
    rb.s = node.ctx.buffers->acquire(lease_doubles<T>(ms * ks));
    T* sp = reinterpret_cast<T*>(rb.s.data());
    if (terms.empty()) {
      std::memset(sp, 0, static_cast<std::size_t>(ms * ks) * sizeof(T));
    } else {
      lin_comb<T>(terms.data(), static_cast<int>(terms.size()), lda,
                  MatViewT<T>(sp, ms, ks, ks), /*width=*/1);
    }
    rb.sv = ConstMatViewT<T>(sp, ms, ks, ks);
  }

  const index_t ldb = node.b.stride();
  terms.clear();
  for (int j = 0; j < alg.rows_v(); ++j) {
    const double coef = alg.v(j, r);
    if (coef == 0.0) continue;
    terms.push_back(
        {node.b.data() + (j / alg.nt) * ks * ldb + (j % alg.nt) * ns, coef});
  }
  if (terms.size() == 1 && terms[0].coeff == 1.0) {
    rb.tv = ConstMatViewT<T>(terms[0].ptr, ks, ns, ldb);
  } else {
    rb.t = node.ctx.buffers->acquire(lease_doubles<T>(ks * ns));
    T* tp = reinterpret_cast<T*>(rb.t.data());
    if (terms.empty()) {
      std::memset(tp, 0, static_cast<std::size_t>(ks * ns) * sizeof(T));
    } else {
      lin_comb<T>(terms.data(), static_cast<int>(terms.size()), ldb,
                  MatViewT<T>(tp, ks, ns, ns), /*width=*/1);
    }
    rb.tv = ConstMatViewT<T>(tp, ks, ns, ns);
  }

  rb.m = node.ctx.buffers->acquire(lease_doubles<T>(ms * ns));
  T* mp = reinterpret_cast<T*>(rb.m.data());
  std::memset(mp, 0, static_cast<std::size_t>(ms * ns) * sizeof(T));
  rb.mv = MatViewT<T>(mp, ms, ns, ns);
}

// The plan one step hands its products: the remaining levels, carrying
// every execution property of the parent (variant, pinned kernel, element
// type).  Null when the step consumed the last level.
std::shared_ptr<const Plan> child_plan(const Plan& plan) {
  if (plan.num_levels() <= 1) return nullptr;
  Plan child = make_plan(
      std::vector<FmmAlgorithm>(plan.levels.begin() + 1, plan.levels.end()),
      plan.variant);
  child.kernel = plan.kernel;
  child.dtype = plan.dtype;
  return std::make_shared<const Plan>(std::move(child));
}

// Builds one expanded step plus its children on ctx.pool (inline when it
// is null), each task submitted after the futures it waits on.  Returns
// the finalizer's future: the first failure among the products, the
// updates and the fringes, in that order.  A valid `done` (a pending
// future) is resolved with the same Status — a descending product's
// completion in the parent node.
template <typename T>
TaskFuture build_node(const RecursiveExecT<T>& ctx, const Plan& plan,
                      MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b,
                      int depth, TaskFuture done) {
  // The step: the consumed outermost level, the child plan, the quadrant
  // sizes of the divisible interior, and whether the products descend.
  auto node = std::make_shared<Node<T>>();
  node->ctx = ctx;
  node->alg = plan.levels.front();
  node->child = child_plan(plan);
  node->a = a;
  node->b = b;
  const FmmAlgorithm& alg = node->alg;
  node->ms = c.rows() / alg.mt;
  node->ks = a.cols() / alg.kt;
  node->ns = c.cols() / alg.nt;
  node->depth = depth;
  node->rb.resize(static_cast<std::size_t>(alg.R));
  node->descend = node->child != nullptr &&
                  should_recurse(*node->child, node->ms, node->ns, node->ks,
                                 ctx.cutoff);
  TaskPool* const pool = ctx.pool;
  const int R = alg.R;

  // The memory throttle: at most `window` products of this node hold
  // buffers at once (prep_r waits for release[r - window]).  Inline, the
  // caller counts as no workers.
  const int window =
      std::min(R, std::max(2, pool != nullptr ? pool->workers() : 0));

  std::vector<TaskFuture> products, updates, releases;
  // The last update of each C quadrant so far (invalid: none yet).
  std::vector<TaskFuture> chain(static_cast<std::size_t>(alg.rows_w()));
  for (int r = 0; r < R; ++r) {
    // Prep (and, for leaves, compute).  Deeper nodes run at higher
    // priority so open subtrees drain before new products start.  A leaf
    // prep *is* the product; a descending prep builds the child graph,
    // whose finalizer resolves the product's pending future (the prep
    // does, with its failure, if the child never gets built).
    TaskOptions po;
    po.priority = depth;
    if (r >= window) {
      po.after = {releases[static_cast<std::size_t>(r - window)]};
    }
    const TaskFuture pending =
        node->descend ? TaskFuture::pending() : TaskFuture{};
    const TaskFuture prep_task = TaskPool::submit_to(
        pool,
        [node, r, pending] {
          // One guard over the prep, the child's build and the leaf: a
          // throw in any of them fails the product.
          Status st = run_guarded([&] {
            {
              obs::TraceScope prep("recurse.prep", "recurse");
              if (prep.active()) {
                prep.set_argf("r=%d d=%d %lldx%lldx%lld", r, node->depth,
                              (long long)node->ms, (long long)node->ns,
                              (long long)node->ks);
              }
              prep_product(*node, r);
            }
            auto& rb = node->rb[static_cast<std::size_t>(r)];
            if (node->descend) {
              build_node(node->ctx, *node->child, rb.mv, rb.sv, rb.tv,
                         node->depth + 1, pending);
            } else {
              obs::TraceScope leaf("recurse.leaf", "recurse");
              if (leaf.active()) {
                leaf.set_argf("r=%d d=%d %lldx%lldx%lld", r, node->depth,
                              (long long)node->ms, (long long)node->ns,
                              (long long)node->ks);
              }
              node->ctx.leaf(node->child.get(), rb.mv, rb.sv, rb.tv);
            }
            return Status{};
          });
          if (!st.ok() && pending.valid()) pending.resolve(st);
          return st;
        },
        std::move(po));
    products.push_back(node->descend ? pending : prep_task);
    const TaskFuture& product = products.back();

    // C updates: per quadrant p one chain of tasks, r ascending — the fixed
    // per-element accumulation order that makes the graph deterministic
    // under any schedule.  An update whose product failed adds nothing.
    std::vector<TaskFuture> consumers;
    for (int p = 0; p < alg.rows_w(); ++p) {
      const double w = alg.w(p, r);
      if (w == 0.0) continue;
      TaskFuture& prev = chain[static_cast<std::size_t>(p)];
      TaskOptions uo;
      uo.priority = depth;
      uo.after = {product, prev};
      const MatViewT<T> cp =
          c.block((p / alg.nt) * node->ms, (p % alg.nt) * node->ns, node->ms,
                  node->ns);
      prev = TaskPool::submit_to(
          pool,
          [node, w, r, cp, product] {
            if (!product.status().ok()) return product.status();
            obs::TraceScope upd("recurse.update", "recurse");
            if (upd.active()) upd.set_argf("r=%d d=%d", r, node->depth);
            scaled_add<T>(w, node->rb[static_cast<std::size_t>(r)].mv, cp,
                          /*width=*/1);
            return Status{};
          },
          std::move(uo));
      consumers.push_back(prev);
    }
    updates.insert(updates.end(), consumers.begin(), consumers.end());

    // The release recycles S/T/M once every consumer of M_r has run.
    TaskOptions ro;
    ro.priority = depth;
    ro.after = consumers.empty() ? std::vector<TaskFuture>{product}
                                 : std::move(consumers);
    releases.push_back(TaskPool::submit_to(
        pool,
        [node, r] {
          node->rb[static_cast<std::size_t>(r)] = typename Node<T>::RBuf{};
        },
        std::move(ro)));
  }

  // Fringe GEMMs.  The k fringe writes the interior C region and must
  // follow every update chain; the n/m fringes write disjoint regions and
  // run free.
  std::vector<TaskFuture> held = products;  // reported in this order
  held.insert(held.end(), updates.begin(), updates.end());
  for (const PeelPiece& p :
       peel_pieces(c.rows(), c.cols(), a.cols(), node->ms * alg.mt,
                   node->ns * alg.nt, node->ks * alg.kt)) {
    if (p.m1 <= p.m0 || p.n1 <= p.n0 || p.k1 <= p.k0) continue;  // empty
    TaskOptions fo;
    fo.priority = depth;
    if (p.k0 > 0) fo.after = chain;
    const MatViewT<T> cp = c.block(p.m0, p.n0, p.m1 - p.m0, p.n1 - p.n0);
    const ConstMatViewT<T> ap = a.block(p.m0, p.k0, p.m1 - p.m0, p.k1 - p.k0);
    const ConstMatViewT<T> bp = b.block(p.k0, p.n0, p.k1 - p.k0, p.n1 - p.n0);
    held.push_back(TaskPool::submit_to(
        pool,
        [node, cp, ap, bp] {
          obs::TraceScope fringe("recurse.fringe", "recurse");
          if (fringe.active()) {
            fringe.set_argf("d=%d %lldx%lldx%lld", node->depth,
                            (long long)cp.rows(), (long long)cp.cols(),
                            (long long)ap.cols());
          }
          node->ctx.leaf(nullptr, cp, ap, bp);
        },
        std::move(fo)));
  }

  // The finalizer runs after every future it reports on.
  TaskOptions fin;
  fin.priority = depth;
  fin.after = held;
  return TaskPool::submit_to(
      pool,
      [held = std::move(held), done] {
        Status st;
        for (const TaskFuture& f : held) {
          if (!f.status().ok()) {
            st = f.status();
            break;
          }
        }
        if (done.valid()) done.resolve(st);
        return st;
      },
      std::move(fin));
}

}  // namespace

template <typename T>
TaskFuture submit_recursive(const RecursiveExecT<T>& ctx, const Plan& plan,
                            MatViewT<T> c, NonDeduced<ConstMatViewT<T>> a,
                            NonDeduced<ConstMatViewT<T>> b) {
  assert(ctx.buffers != nullptr && ctx.leaf);
  assert(should_recurse(plan, c.rows(), c.cols(), a.cols(), ctx.cutoff));
  return build_node(ctx, plan, c, a, b, /*depth=*/0, TaskFuture{});
}

template TaskFuture submit_recursive<double>(const RecursiveExecT<double>&,
                                             const Plan&, MatViewT<double>,
                                             ConstMatViewT<double>,
                                             ConstMatViewT<double>);
template TaskFuture submit_recursive<float>(const RecursiveExecT<float>&,
                                            const Plan&, MatViewT<float>,
                                            ConstMatViewT<float>,
                                            ConstMatViewT<float>);

}  // namespace fmm
