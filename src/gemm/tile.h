#pragma once

// The one register tile every registered micro-kernel instantiates.
//
// Tile<Traits, VPC, NR> holds an mR x NR block in registers, mR = VPC
// vectors of Traits::kLanes elements: each of the NR columns is VPC vectors
// of the mR-panel, so every k step is VPC loads, NR broadcasts and VPC * NR
// multiply-adds into as many independent accumulator chains, and each
// element sums its k products in order.  A kernel's two registry entries
// (kernel.h) construct one: store() is the block into acc, update() adds it
// into every C target straight from the registers.
//
// Traits is one vector type and its operations: Elem, V, Mask, kLanes;
// zero(), set1(x), fmadd(a, b, c) = a * b + c, mul, add, load/store and
// their masked forms, and mask(n), the first n lanes (0 <= n <= kLanes).
// Each ISA's traits live in an anonymous namespace of the translation unit
// built with that ISA's flags (Zmm in microkernel_avx512.cc, Ymm in
// microkernel_avx2.cc, the one-lane Scalar in kernel.cc), so every
// instantiation is compiled once, with its own flags, and this header
// includes no intrinsics.  Keep it free of non-template inline functions:
// the linker would pick one TU's ISA for every caller.
//
// Every TU that instantiates the tile builds with -ffp-contract=off: the C
// update's product and add are two roundings, epilogue_update's arithmetic
// bit for bit, and the k sum fuses exactly where the traits' fmadd does.

#include "src/gemm/term.h"
#include "src/linalg/mat_view.h"

namespace fmm {
namespace detail {

template <class Traits, int VPC, int NR>
struct Tile {
  using T = typename Traits::Elem;
  using V = typename Traits::V;
  using Mask = typename Traits::Mask;
  static constexpr int kL = Traits::kLanes;
  static constexpr int kMR = VPC * kL;

  V c[NR][VPC];

  Tile(index_t k, const T* a, const T* b) {
#pragma GCC unroll 16
    for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 16
      for (int v = 0; v < VPC; ++v) c[j][v] = Traits::zero();
    }
    for (index_t kk = 0; kk < k; ++kk) {
      V av[VPC];
#pragma GCC unroll 16
      for (int v = 0; v < VPC; ++v) av[v] = Traits::load(a + v * kL);
#pragma GCC unroll 16
      for (int j = 0; j < NR; ++j) {
        const V bj = Traits::set1(b[j]);
#pragma GCC unroll 16
        for (int v = 0; v < VPC; ++v) {
          c[j][v] = Traits::fmadd(av[v], bj, c[j][v]);
        }
      }
      a += kMR;
      b += NR;
    }
  }

  // acc[j * mR + r]: the column-major block of the kernel contract.
  void store(T* acc) const {
#pragma GCC unroll 16
    for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 16
      for (int v = 0; v < VPC; ++v) {
        Traits::store(acc + j * kMR + v * kL, c[j][v]);
      }
    }
  }

  // epilogue_update at (rs, cs) = (1, ldc), straight from the registers:
  // column j of the tile is the first m_sub elements of C row j of every
  // target, for j < n_sub.  Each element is w * acc, rounded, then added
  // to C.  An edge tile (m_sub < mR) reads and writes its rows through
  // lane masks.
  void update(const OutTermT<T>* targets, int num_targets, index_t ldc,
              index_t m_sub, index_t n_sub, bool accumulate) const {
    const bool full = m_sub == kMR;
    Mask mask[VPC];
#pragma GCC unroll 16
    for (int v = 0; v < VPC; ++v) {
      const index_t lanes = m_sub - v * kL;
      mask[v] = Traits::mask(lanes < 0 ? 0 : (lanes > kL ? kL : lanes));
    }
    for (int t = 0; t < num_targets; ++t) {
      const V w = Traits::set1(static_cast<T>(targets[t].coeff));
      T* row = targets[t].ptr;
#pragma GCC unroll 16
      for (int j = 0; j < NR; ++j) {
        if (j >= n_sub) break;
        V x[VPC];
#pragma GCC unroll 16
        for (int v = 0; v < VPC; ++v) x[v] = Traits::mul(w, c[j][v]);
        if (full) {
          if (accumulate) {
#pragma GCC unroll 16
            for (int v = 0; v < VPC; ++v) {
              x[v] = Traits::add(Traits::load(row + v * kL), x[v]);
            }
          }
#pragma GCC unroll 16
          for (int v = 0; v < VPC; ++v) Traits::store(row + v * kL, x[v]);
        } else {
          if (accumulate) {
#pragma GCC unroll 16
            for (int v = 0; v < VPC; ++v) {
              x[v] = Traits::add(Traits::load(mask[v], row + v * kL), x[v]);
            }
          }
#pragma GCC unroll 16
          for (int v = 0; v < VPC; ++v) {
            Traits::store(row + v * kL, mask[v], x[v]);
          }
        }
        row += ldc;
      }
    }
  }
};

}  // namespace detail
}  // namespace fmm
