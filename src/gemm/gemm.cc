#include "src/gemm/gemm.h"

#include <cassert>

#include "src/core/task_pool.h"

namespace fmm {
namespace {

template <typename T>
void gemm_impl(MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b,
               GemmWorkspaceT<T>& ws, const GemmConfig& cfg) {
  assert(a.rows() == c.rows() && b.cols() == c.cols() && a.cols() == b.rows());
  LinTermT<T> at{a.data(), 1.0};
  LinTermT<T> bt{b.data(), 1.0};
  OutTermT<T> ct{c.data(), 1.0};
  fused_multiply<T>(c.rows(), c.cols(), a.cols(), &at, 1, a.stride(), &bt, 1,
                    b.stride(), &ct, 1, c.stride(), ws, cfg);
}

template <typename T>
void ref_gemm_impl(MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b) {
  assert(a.rows() == c.rows() && b.cols() == c.cols() && a.cols() == b.rows());
  const index_t n = c.cols(), k = a.cols();
  TaskPool::parallel_region(resolve_threads(GemmConfig{}), [&](Team& team) {
    team.for_each(c.rows(), [&](index_t i) {
      T* crow = c.row(i);
      for (index_t p = 0; p < k; ++p) {
        const T aip = a(i, p);
        if (aip == T(0)) continue;
        const T* brow = b.row(p);
        for (index_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
      }
    });
  });
}

}  // namespace

void gemm(MatView c, ConstMatView a, ConstMatView b, GemmWorkspace& ws,
          const GemmConfig& cfg) {
  gemm_impl<double>(c, a, b, ws, cfg);
}

void gemm(MatViewF32 c, ConstMatViewF32 a, ConstMatViewF32 b,
          GemmWorkspaceF32& ws, const GemmConfig& cfg) {
  gemm_impl<float>(c, a, b, ws, cfg);
}

void gemm(MatView c, ConstMatView a, ConstMatView b, const GemmConfig& cfg) {
  GemmWorkspace ws;
  gemm_impl<double>(c, a, b, ws, cfg);
}

void gemm(MatViewF32 c, ConstMatViewF32 a, ConstMatViewF32 b,
          const GemmConfig& cfg) {
  GemmWorkspaceF32 ws;
  gemm_impl<float>(c, a, b, ws, cfg);
}

void ref_gemm(MatView c, ConstMatView a, ConstMatView b) {
  ref_gemm_impl<double>(c, a, b);
}

void ref_gemm(MatViewF32 c, ConstMatViewF32 a, ConstMatViewF32 b) {
  ref_gemm_impl<float>(c, a, b);
}

}  // namespace fmm
