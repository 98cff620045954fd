#ifndef BLAZEIT_NN_TENSOR_H_
#define BLAZEIT_NN_TENSOR_H_

#include <cstddef>
#include <vector>

#include "util/check.h"

namespace blazeit {

/// Dense row-major float matrix: the only tensor shape the specialized NNs
/// need (batches of flattened frames). Kept deliberately small — this is a
/// training substrate, not a general ML framework.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool Empty() const { return rows_ == 0 || cols_ == 0; }

  float At(int r, int c) const { return data_[Index(r, c)]; }
  float& At(int r, int c) { return data_[Index(r, c)]; }

  /// Pointer to the start of a row.
  const float* Row(int r) const { return data_.data() + Index(r, 0); }
  float* Row(int r) { return data_.data() + Index(r, 0); }

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  void Zero();
  /// Reshapes to [rows, cols] keeping the buffer's capacity, so a matrix
  /// reused across batches allocates once. Cell values are left over from
  /// earlier use (zero where the buffer grew): callers overwrite every cell.
  void Resize(int rows, int cols);

 private:
  size_t Index(int r, int c) const {
    BLAZEIT_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return static_cast<size_t>(r) * static_cast<size_t>(cols_) +
           static_cast<size_t>(c);
  }

  int rows_;
  int cols_;
  std::vector<float> data_;
};

/// C = A * B. Shapes: [m,k] x [k,n] -> [m,n].
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B. Shapes: [k,m] x [k,n] -> [m,n]. Used for weight gradients.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);

/// C = A * B^T. Shapes: [m,k] x [n,k] -> [m,n]. Used for input gradients.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

}  // namespace blazeit

#endif  // BLAZEIT_NN_TENSOR_H_
