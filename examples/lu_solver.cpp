// Domain example: tiled dataflow LU factorization on the task pool, with
// every Schur-complement update running through the FMM poly-algorithm.
//
// The matrix is tiled into T x T blocks and the classic four-kernel
// pipeline (the dw_factolu decomposition from the StarPU examples) is
// submitted as one task graph up front, each task after the futures of the
// tasks it reads from:
//
//   getrf(k)     : unblocked LU of A(k,k)
//   trsm12(k,j)  : L(k,k) X = A(k,j)                (row panel, j > k)
//   trsm21(i,k)  : X U(k,k) = A(i,k), and -A(i,k) is stashed in a scratch
//                  block so the updates below can run concurrently
//   gemm(k,i,j)  : A(i,j) += (-A(i,k)) * A(k,j)     (i, j > k)
//
//   getrf(k) <- gemm(k-1,k,k)
//   trsm12(k,j) <- getrf(k), gemm(k-1,k,j)
//   trsm21(i,k) <- getrf(k), gemm(k-1,i,k)
//   gemm(k,i,j) <- trsm21(i,k), trsm12(k,j), gemm(k-1,i,j)
//
// The k-major loop submits every task after its producers, so each task's
// dependencies are futures that already exist.  No step-k barrier
// anywhere: a trailing block whose inputs are ready updates while other
// step-k panels are still solving, and getrf(k+1) starts as soon as its
// one block is current.  Priorities keep the
// critical path (getrf > trsm > gemm, earlier k first) at the queue front.
// The gemm tasks call Engine::multiply from pool workers — the engine runs
// those inline (nested submits never block on the pool) with the
// model-selected FMM algorithm for the b x b x b block shape.
//
//   $ ./lu_solver --n 2048 --block 256 --workers 0
//
// The scratch negation exists because the engine computes C += A * B and
// several gemm(k,i,j) tasks read A(i,k) concurrently — negating it in
// place would race; negating once, into the scratch, is part of the
// trsm21 task.

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <vector>

#include "src/core/engine.h"
#include "src/core/task_pool.h"
#include "src/linalg/ops.h"
#include "src/util/cli.h"
#include "src/util/timer.h"

using namespace fmm;

namespace {

// Unblocked LU (no pivoting) on the diagonal block.
void lu_unblocked(MatView a) {
  const index_t n = a.rows();
  for (index_t j = 0; j < n; ++j) {
    const double piv = a(j, j);
    for (index_t i = j + 1; i < n; ++i) {
      a(i, j) /= piv;
      const double lij = a(i, j);
      double* arow = a.row(i);
      const double* prow = a.row(j);
      for (index_t p = j + 1; p < n; ++p) arow[p] -= lij * prow[p];
    }
  }
}

// Solves L11 * X = A12 in place (unit lower triangular L11).
void trsm_lower_unit(ConstMatView l, MatView x) {
  for (index_t i = 0; i < x.rows(); ++i) {
    for (index_t p = 0; p < i; ++p) {
      const double lip = l(i, p);
      double* xr = x.row(i);
      const double* xp = x.row(p);
      for (index_t j = 0; j < x.cols(); ++j) xr[j] -= lip * xp[j];
    }
  }
}

// Solves X * U11 = A21 in place (upper triangular U11).
void trsm_upper(ConstMatView u, MatView x) {
  for (index_t j = 0; j < x.cols(); ++j) {
    const double ujj = u(j, j);
    for (index_t i = 0; i < x.rows(); ++i) {
      double s = x(i, j);
      for (index_t p = 0; p < j; ++p) s -= x(i, p) * u(p, j);
      x(i, j) = s / ujj;
    }
  }
}

enum BlockTaskKind { kGetrf = 0, kTrsmRow = 1, kTrsmCol = 2, kGemm = 3 };

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const index_t n = cli.get_int("n", 2048, "matrix dimension");
  const index_t nb = cli.get_int("block", 256, "tile size");
  const int workers =
      cli.get_int("workers", 0, "task-pool workers (0 = all cores)");
  cli.finish();

  // Diagonally dominant random matrix: LU without pivoting is stable.
  Matrix a = Matrix::random(n, n, 42);
  for (index_t i = 0; i < n; ++i) a(i, i) += 2.0 * n;
  Matrix orig = a.clone();
  // Scratch for the negated column panels (-L blocks feeding the updates).
  Matrix neg = Matrix::zero(n, n);

  const index_t T = (n + nb - 1) / nb;  // tile count per dimension
  auto row0 = [&](index_t i) { return i * nb; };
  auto rows = [&](index_t i) { return std::min(nb, n - i * nb); };
  auto block = [&](Matrix& m, index_t i, index_t j) {
    return m.view().block(row0(i), row0(j), rows(i), rows(j));
  };

  // The engine's multiplies run inside tasks, one per task: internal
  // threading stays off and the pool provides all the parallelism.
  Engine::Options eopts;
  eopts.config.num_threads = 1;
  Engine engine(eopts);
  TaskPool pool(workers);

  // The future of task (kind, k, i, j), once submitted.
  std::vector<TaskFuture> futures(static_cast<std::size_t>(4 * T * T * T));
  auto future = [&futures, T](BlockTaskKind kind, index_t k, index_t i,
                              index_t j) -> TaskFuture& {
    return futures[static_cast<std::size_t>(((k * T + i) * T + j) * 4 + kind)];
  };
  // Critical path first: earlier steps beat later ones, getrf beats trsm
  // beats gemm within a step.
  auto prio = [T](BlockTaskKind kind, index_t k) {
    const int kind_rank = kind == kGetrf ? 3 : kind == kGemm ? 1 : 2;
    return static_cast<int>((T - k) << 2) | kind_rank;
  };

  std::printf("tiled dataflow LU, n=%lld, tile=%lld (%lldx%lld blocks), "
              "%d pool workers\n",
              (long long)n, (long long)nb, (long long)T, (long long)T,
              pool.workers());

  // Submits task (kind, k, i, j) after `deps`, skipping the gemm(k-1, ...)
  // producer at k = 0, where the block is still the original input.
  auto submit = [&](BlockTaskKind kind, index_t k, index_t i, index_t j,
                    std::initializer_list<TaskFuture> deps, auto&& fn) {
    TaskOptions o;
    if (k > 0) o.after.push_back(future(kGemm, k - 1, i, j));
    o.after.insert(o.after.end(), deps.begin(), deps.end());
    o.priority = prio(kind, k);
    future(kind, k, i, j) = pool.submit(fn, std::move(o));
  };

  Timer total;
  // The whole DAG is submitted up front; the futures do the sequencing.
  for (index_t k = 0; k < T; ++k) {
    submit(kGetrf, k, k, k, {}, [&a, &block, k] {
      lu_unblocked(block(a, k, k));
    });
    for (index_t j = k + 1; j < T; ++j) {
      submit(kTrsmRow, k, k, j, {future(kGetrf, k, k, k)}, [&a, &block, k, j] {
        trsm_lower_unit(block(a, k, k), block(a, k, j));
      });
    }
    for (index_t i = k + 1; i < T; ++i) {
      submit(kTrsmCol, k, i, k, {future(kGetrf, k, k, k)},
             [&a, &neg, &block, k, i] {
               MatView l = block(a, i, k);
               trsm_upper(block(a, k, k), l);
               MatView d = block(neg, i, k);
               for (index_t r = 0; r < l.rows(); ++r) {
                 const double* s = l.row(r);
                 double* dst = d.row(r);
                 for (index_t c = 0; c < l.cols(); ++c) dst[c] = -s[c];
               }
             });
    }
    for (index_t i = k + 1; i < T; ++i) {
      for (index_t j = k + 1; j < T; ++j) {
        submit(kGemm, k, i, j,
               {future(kTrsmCol, k, i, k), future(kTrsmRow, k, k, j)},
               [&engine, &a, &neg, &block, k, i, j] {
                 // A(i,j) += (-L(i,k)) * U(k,j), model-selected per block
                 // shape; runs inline (this is a pool worker).
                 const Status st = engine.multiply(
                     block(a, i, j), block(neg, i, k), block(a, k, j));
                 if (!st.ok()) {
                   std::fprintf(stderr, "update (%lld,%lld,%lld): %s\n",
                                (long long)k, (long long)i, (long long)j,
                                st.to_string().c_str());
                 }
               });
      }
    }
  }
  pool.wait_all();
  const double total_s = total.seconds();

  // Validate: reconstruct L*U and compare with the original matrix.
  Matrix l = Matrix::zero(n, n);
  Matrix u = Matrix::zero(n, n);
  for (index_t i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    for (index_t j = 0; j < n; ++j) {
      if (j < i) l(i, j) = a(i, j);
      else u(i, j) = a(i, j);
    }
  }
  Matrix lu = Matrix::zero(n, n);
  GemmWorkspace ws;
  gemm(lu.view(), l.view(), u.view(), ws, GemmConfig{});
  const double err = rel_error_fro(lu.view(), orig.view());

  std::printf("factorization time : %.3f s (%.2f effective GFLOPS for the "
              "2/3 n^3 LU)\n", total_s, 2.0 / 3.0 * n * n * n / total_s * 1e-9);
  std::printf("||LU - A|| / ||A|| : %.3e\n", err);
  return err < 1e-12 ? 0 : 1;
}
