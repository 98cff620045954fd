#include "nn/tensor.h"

#include <algorithm>

#include "nn/matmul_kernels.h"
#include "util/check.h"

namespace blazeit {

void Matrix::Zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

void Matrix::Resize(int rows, int cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
}

// Shape mismatches here would be silent out-of-bounds reads in Release
// builds if guarded by assert() (which compiles out under NDEBUG), so the
// checks are BLAZEIT_CHECK: always on, abort with the offending dims.

Matrix MatMul(const Matrix& a, const Matrix& b) {
  BLAZEIT_CHECK(a.cols() == b.rows())
      << " — MatMul shape mismatch: [" << a.rows() << "," << a.cols()
      << "] x [" << b.rows() << "," << b.cols() << "]";
  Matrix c(a.rows(), b.cols());
  matmul::MatMul(a.data().data(), b.data().data(), c.data().data(), a.rows(),
                 a.cols(), b.cols());
  return c;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  BLAZEIT_CHECK(a.rows() == b.rows())
      << " — MatMulTransposeA shape mismatch: [" << a.rows() << ","
      << a.cols() << "]^T x [" << b.rows() << "," << b.cols() << "]";
  Matrix c(a.cols(), b.cols());
  matmul::MatMulTransposeA(a.data().data(), b.data().data(), c.data().data(),
                           a.cols(), a.rows(), b.cols());
  return c;
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  BLAZEIT_CHECK(a.cols() == b.cols())
      << " — MatMulTransposeB shape mismatch: [" << a.rows() << ","
      << a.cols() << "] x [" << b.rows() << "," << b.cols() << "]^T";
  Matrix c(a.rows(), b.rows());
  matmul::MatMulTransposeB(a.data().data(), b.data().data(), c.data().data(),
                           a.rows(), a.cols(), b.rows());
  return c;
}

}  // namespace blazeit
