#include "src/gemm/pack.h"

#include <algorithm>

namespace fmm {

template <typename T>
void pack_a_panel(const LinTermT<T>* terms, int num_terms, index_t lda,
                  index_t m, index_t k, int w, index_t p, T* out_panel) {
  const index_t row0 = p * w;
  const index_t rows = std::min<index_t>(w, m - row0);
  for (int t = 0; t < num_terms; ++t) {
    const T* src = terms[t].ptr + row0 * lda;
    const T c = static_cast<T>(terms[t].coeff);
    if (t == 0) {
      for (index_t kk = 0; kk < k; ++kk) {
        for (index_t r = 0; r < rows; ++r)
          out_panel[kk * w + r] = c * src[r * lda + kk];
        for (index_t r = rows; r < w; ++r) out_panel[kk * w + r] = T(0);
      }
    } else {
      for (index_t kk = 0; kk < k; ++kk) {
        for (index_t r = 0; r < rows; ++r)
          out_panel[kk * w + r] += c * src[r * lda + kk];
      }
    }
  }
}

template <typename T>
void pack_b_panel(const LinTermT<T>* terms, int num_terms, index_t ldb,
                  index_t k, index_t n, int w, index_t q, T* out_panel) {
  const index_t col0 = q * w;
  const index_t cols = std::min<index_t>(w, n - col0);
  for (int t = 0; t < num_terms; ++t) {
    const T* b = terms[t].ptr + col0;
    const T c = static_cast<T>(terms[t].coeff);
    if (t == 0) {
      for (index_t kk = 0; kk < k; ++kk) {
        const T* src = b + kk * ldb;
        T* dst = out_panel + kk * w;
        for (index_t j = 0; j < cols; ++j) dst[j] = c * src[j];
        for (index_t j = cols; j < w; ++j) dst[j] = T(0);
      }
    } else {
      for (index_t kk = 0; kk < k; ++kk) {
        const T* src = b + kk * ldb;
        T* dst = out_panel + kk * w;
        for (index_t j = 0; j < cols; ++j) dst[j] += c * src[j];
      }
    }
  }
}

template <typename T>
void pack_a(const LinTermT<T>* terms, int num_terms, index_t lda, index_t m,
            index_t k, int w, T* out) {
  const index_t panels = ceil_div(m, w);
  for (index_t p = 0; p < panels; ++p) {
    pack_a_panel<T>(terms, num_terms, lda, m, k, w, p, out + p * w * k);
  }
}

template <typename T>
void pack_b(const LinTermT<T>* terms, int num_terms, index_t ldb, index_t k,
            index_t n, int w, T* out) {
  const index_t panels = ceil_div(n, w);
  for (index_t q = 0; q < panels; ++q) {
    pack_b_panel<T>(terms, num_terms, ldb, k, n, w, q, out + q * w * k);
  }
}

template void pack_a<double>(const LinTerm*, int, index_t, index_t, index_t,
                             int, double*);
template void pack_a<float>(const LinTermF32*, int, index_t, index_t, index_t,
                            int, float*);
template void pack_a_panel<double>(const LinTerm*, int, index_t, index_t,
                                   index_t, int, index_t, double*);
template void pack_a_panel<float>(const LinTermF32*, int, index_t, index_t,
                                  index_t, int, index_t, float*);
template void pack_b_panel<double>(const LinTerm*, int, index_t, index_t,
                                   index_t, int, index_t, double*);
template void pack_b_panel<float>(const LinTermF32*, int, index_t, index_t,
                                  index_t, int, index_t, float*);
template void pack_b<double>(const LinTerm*, int, index_t, index_t, index_t,
                             int, double*);
template void pack_b<float>(const LinTermF32*, int, index_t, index_t, index_t,
                            int, float*);

}  // namespace fmm
