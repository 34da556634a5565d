#pragma once

// Owning row-major matrix with cache-line-aligned storage.

#include <cstring>

#include "src/linalg/mat_view.h"
#include "src/util/aligned_buffer.h"
#include "src/util/prng.h"

namespace fmm {

class Matrix {
 public:
  Matrix() = default;

  // Allocates rows x cols; `stride` defaults to cols (dense).  A larger
  // stride can be requested to test strided-view code paths.
  Matrix(index_t rows, index_t cols, index_t stride = 0)
      : rows_(rows), cols_(cols), stride_(stride == 0 ? cols : stride) {
    buf_.resize(static_cast<std::size_t>(rows_ * stride_));
  }

  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  // Deep copy is explicit to keep accidental copies of multi-GB operands
  // out of the benchmark harness.
  Matrix clone() const {
    Matrix out(rows_, cols_, stride_);
    // An empty matrix has no buffer, and memcpy's pointers must not be null.
    if (rows_ * stride_ > 0) {
      std::memcpy(out.data(), data(),
                  static_cast<std::size_t>(rows_ * stride_) * sizeof(double));
    }
    return out;
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t stride() const { return stride_; }

  double* data() { return buf_.data(); }
  const double* data() const { return buf_.data(); }

  double& operator()(index_t i, index_t j) { return buf_[i * stride_ + j]; }
  double operator()(index_t i, index_t j) const { return buf_[i * stride_ + j]; }

  MatView view() { return MatView(data(), rows_, cols_, stride_); }
  ConstMatView view() const { return ConstMatView(data(), rows_, cols_, stride_); }
  ConstMatView cview() const { return view(); }

  void set_zero() {
    if (rows_ * stride_ > 0) {
      std::memset(data(), 0,
                  static_cast<std::size_t>(rows_ * stride_) * sizeof(double));
    }
  }

  void fill(double v) {
    for (index_t i = 0; i < rows_; ++i)
      for (index_t j = 0; j < cols_; ++j) (*this)(i, j) = v;
  }

  // Uniform entries in [-1, 1): the standard dense-kernel test/benchmark fill.
  void fill_random(std::uint64_t seed) {
    Xoshiro256 rng(seed);
    for (index_t i = 0; i < rows_; ++i)
      for (index_t j = 0; j < cols_; ++j) (*this)(i, j) = rng.uniform(-1.0, 1.0);
  }

  static Matrix random(index_t rows, index_t cols, std::uint64_t seed) {
    Matrix m(rows, cols);
    m.fill_random(seed);
    return m;
  }

  static Matrix zero(index_t rows, index_t cols) {
    Matrix m(rows, cols);
    m.set_zero();
    return m;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t stride_ = 0;
  AlignedBuffer<double> buf_;
};

}  // namespace fmm
