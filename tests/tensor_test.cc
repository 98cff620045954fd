#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "nn/elementwise_kernels.h"
#include "nn/matmul_kernels.h"
#include "nn/optimizer.h"
#include "util/random.h"

namespace blazeit {
namespace {

Matrix Make(int rows, int cols, std::initializer_list<float> vals) {
  Matrix m(rows, cols);
  auto it = vals.begin();
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m.At(r, c) = *it++;
  }
  return m;
}

TEST(MatrixTest, Accessors) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  m.At(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.Row(1)[2], 5.0f);
  m.Zero();
  EXPECT_FLOAT_EQ(m.At(1, 2), 0.0f);
  m.Resize(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.data().size(), 12u);
  m.At(2, 3) = 7.0f;
  EXPECT_FLOAT_EQ(m.Row(2)[3], 7.0f);
  EXPECT_TRUE(Matrix().Empty());
}

TEST(MatMulTest, KnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  Matrix a = Make(2, 2, {1, 2, 3, 4});
  Matrix b = Make(2, 2, {5, 6, 7, 8});
  Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 19);
  EXPECT_FLOAT_EQ(c.At(0, 1), 22);
  EXPECT_FLOAT_EQ(c.At(1, 0), 43);
  EXPECT_FLOAT_EQ(c.At(1, 1), 50);
}

TEST(MatMulTest, RectangularShapes) {
  Matrix a = Make(1, 3, {1, 2, 3});
  Matrix b = Make(3, 2, {1, 0, 0, 1, 1, 1});
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 1);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.At(0, 0), 4);
  EXPECT_FLOAT_EQ(c.At(0, 1), 5);
}

TEST(MatMulTest, TransposeAMatchesExplicit) {
  // A^T B where A is [3,2], B is [3,2] -> [2,2].
  Matrix a = Make(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix b = Make(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMulTransposeA(a, b);
  // Explicit: c[i][j] = sum_k a[k][i] * b[k][j].
  EXPECT_FLOAT_EQ(c.At(0, 0), 1 * 7 + 3 * 9 + 5 * 11);
  EXPECT_FLOAT_EQ(c.At(1, 1), 2 * 8 + 4 * 10 + 6 * 12);
}

TEST(MatMulTest, TransposeBMatchesExplicit) {
  // A B^T where A is [2,3], B is [2,3] -> [2,2].
  Matrix a = Make(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = Make(2, 3, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMulTransposeB(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 1 * 7 + 2 * 8 + 3 * 9);
  EXPECT_FLOAT_EQ(c.At(0, 1), 1 * 10 + 2 * 11 + 3 * 12);
  EXPECT_FLOAT_EQ(c.At(1, 0), 4 * 7 + 5 * 8 + 6 * 9);
}

// Shape mismatches must abort in every build type (they were bare
// assert()s once, which compile out under NDEBUG and turn into silent
// out-of-bounds reads), with the offending dims in the message.
using MatMulDeathTest = ::testing::Test;

TEST(MatMulDeathTest, MismatchedInnerDimAborts) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_DEATH(MatMul(a, b), "MatMul shape mismatch: \\[2,3\\] x \\[4,2\\]");
}

TEST(MatMulDeathTest, TransposeAMismatchAborts) {
  Matrix a(3, 2), b(4, 2);
  EXPECT_DEATH(MatMulTransposeA(a, b), "MatMulTransposeA shape mismatch");
}

TEST(MatMulDeathTest, TransposeBMismatchAborts) {
  Matrix a(2, 3), b(2, 4);
  EXPECT_DEATH(MatMulTransposeB(a, b), "MatMulTransposeB shape mismatch");
}

// The dispatched (possibly AVX-512) kernels must be bit-identical to the
// scalar fallbacks — the persistent artifact store replays NN outputs
// across machines with different ISAs. Shapes cover SIMD tile tails
// (n % 16, row tails of the 4- and 8-row blocks), one to four live
// column tiles, exact-zero coefficients (ReLU activations), and the
// shapes the engine runs: the small NN's trunk (which crosses the
// sharding threshold), a training step, a count head, and their
// weight gradients.
class MatMulParityTest : public ::testing::Test {
 protected:
  static Matrix RandomMatrix(Rng* rng, int rows, int cols,
                             double zero_fraction) {
    Matrix m(rows, cols);
    for (float& v : m.data()) {
      v = rng->Bernoulli(zero_fraction)
              ? 0.0f
              : static_cast<float>(rng->Normal(0.0, 1.0));
    }
    return m;
  }

  static void ExpectBitIdentical(const Matrix& want, const Matrix& got) {
    ASSERT_EQ(want.rows(), got.rows());
    ASSERT_EQ(want.cols(), got.cols());
    for (size_t i = 0; i < want.data().size(); ++i) {
      ASSERT_EQ(want.data()[i], got.data()[i]) << "flat index " << i;
    }
  }
};

TEST_F(MatMulParityTest, MatMulMatchesScalar) {
  Rng rng(21);
  constexpr int kShapes[][3] = {
      {1, 1, 1},      {2, 3, 4},       {4, 16, 16},  {5, 7, 3},
      {7, 33, 17},    {8, 64, 64},     {9, 100, 65}, {16, 256, 8},
      {256, 1024, 32}, {16, 1024, 32}, {256, 32, 5}, {11, 20, 48},
      {13, 40, 32},   {15, 1024, 32}};
  for (auto [m, k, n] : kShapes) {
    for (double zf : {0.0, 0.5}) {
      Matrix a = RandomMatrix(&rng, m, k, zf);
      Matrix b = RandomMatrix(&rng, k, n, 0.0);
      Matrix want(m, n);
      matmul::MatMulScalar(a.data().data(), b.data().data(),
                           want.data().data(), m, k, n);
      SCOPED_TRACE(::testing::Message()
                   << m << "x" << k << "x" << n << " zeros " << zf);
      ExpectBitIdentical(want, MatMul(a, b));
    }
  }
}

TEST_F(MatMulParityTest, TransposeAMatchesScalar) {
  Rng rng(22);
  constexpr int kShapes[][3] = {
      {1, 1, 1},    {3, 2, 4},     {16, 4, 16},  {7, 5, 3},
      {33, 7, 17},  {64, 8, 64},   {100, 9, 65}, {1024, 16, 32},
      {32, 16, 5},  {13, 16, 48}};
  for (auto [m, k, n] : kShapes) {
    for (double zf : {0.0, 0.5}) {
      Matrix a = RandomMatrix(&rng, k, m, zf);
      Matrix b = RandomMatrix(&rng, k, n, 0.0);
      Matrix want(m, n);
      matmul::MatMulTransposeAScalar(a.data().data(), b.data().data(),
                                     want.data().data(), m, k, n);
      SCOPED_TRACE(::testing::Message()
                   << m << "x" << k << "x" << n << " zeros " << zf);
      ExpectBitIdentical(want, MatMulTransposeA(a, b));
    }
  }
}

TEST_F(MatMulParityTest, TransposeBMatchesScalar) {
  Rng rng(23);
  constexpr int kShapes[][3] = {{1, 1, 1},  {3, 4, 2},   {16, 16, 4},
                                {7, 3, 5},  {33, 17, 7}, {64, 64, 8},
                                {100, 65, 9}};
  for (auto [m, k, n] : kShapes) {
    for (double zf : {0.0, 0.5}) {
      Matrix a = RandomMatrix(&rng, m, k, zf);
      Matrix b = RandomMatrix(&rng, n, k, 0.0);
      Matrix want(m, n);
      matmul::MatMulTransposeBScalar(a.data().data(), b.data().data(),
                                     want.data().data(), m, k, n);
      SCOPED_TRACE(::testing::Message()
                   << m << "x" << k << "x" << n << " zeros " << zf);
      ExpectBitIdentical(want, MatMulTransposeB(a, b));
    }
  }
}

TEST(MatMulTest, TransposeIdentitiesAgree) {
  // (A^T B) == MatMul(transpose(A), B) cross-check via MatMul itself.
  Matrix a = Make(2, 2, {1, 2, 3, 4});
  Matrix at = Make(2, 2, {1, 3, 2, 4});
  Matrix b = Make(2, 2, {5, 6, 7, 8});
  Matrix direct = MatMulTransposeA(a, b);
  Matrix viaT = MatMul(at, b);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_FLOAT_EQ(direct.At(r, c), viaT.At(r, c));
    }
  }
}

// Element-wise training kernels: SgdOptimizer::Step, the dispatched
// accumulate and both scalar paths against hand-written loops, bit for
// bit (the scalar paths directly, since AVX-512 hosts never dispatch to
// them but other hosts replay what they computed). Sizes cover
// a single element, the 16-lane tail on both sides of one vector, and
// the small NN's head and trunk buffers; ten steps with a decaying
// learning rate, as training runs them.
constexpr size_t kElementwiseSizes[] = {1, 15, 16, 17, 1000, 32800};

std::vector<float> RandomFloats(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng->Bernoulli(0.1) ? 0.0f
                            : static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return v;
}

void ExpectSameBits(const std::vector<float>& want,
                    const std::vector<float>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(want[i]), std::bit_cast<uint32_t>(got[i]))
        << "index " << i;
  }
}

TEST(ElementwiseParityTest, SgdStepMatchesScalarLoop) {
  Rng rng(0x9e3779b9);
  std::vector<std::vector<float>> values, grads, ref_values, ref_vel;
  std::vector<std::vector<float>> scalar_values, scalar_vel;
  for (size_t n : kElementwiseSizes) {
    values.push_back(RandomFloats(&rng, n));
    grads.emplace_back(n);
    ref_values.push_back(values.back());
    ref_vel.emplace_back(n, 0.0f);
    scalar_values.push_back(values.back());
    scalar_vel.emplace_back(n, 0.0f);
  }
  std::vector<ParamRef> params;
  for (size_t p = 0; p < values.size(); ++p) {
    params.push_back({&values[p], &grads[p]});
  }
  SgdOptimizer opt(params, 0.02, 0.9);
  double lr = 0.02;
  for (int step = 0; step < 10; ++step) {
    for (size_t p = 0; p < values.size(); ++p) {
      grads[p] = RandomFloats(&rng, grads[p].size());
    }
    opt.Step();
    const float m = static_cast<float>(0.9);
    const float rate = static_cast<float>(lr);
    for (size_t p = 0; p < values.size(); ++p) {
      for (size_t j = 0; j < values[p].size(); ++j) {
        ref_vel[p][j] = m * ref_vel[p][j] + grads[p][j];
        ref_values[p][j] -= rate * ref_vel[p][j];
      }
      elementwise::SgdMomentumStepScalar(
          scalar_values[p].data(), scalar_vel[p].data(), grads[p].data(),
          grads[p].size(), m, rate);
      SCOPED_TRACE(::testing::Message() << "step " << step << " size "
                                        << values[p].size());
      ExpectSameBits(ref_values[p], values[p]);
      ExpectSameBits(ref_values[p], scalar_values[p]);
    }
    lr *= 0.5;
    opt.set_lr(opt.lr() * 0.5);
  }
}

TEST(ElementwiseParityTest, AccumulateMatchesScalarLoop) {
  Rng rng(0x85ebca6b);
  for (size_t n : kElementwiseSizes) {
    std::vector<float> got = RandomFloats(&rng, n);
    std::vector<float> scalar = got;
    std::vector<float> want = got;
    for (int step = 0; step < 10; ++step) {
      const std::vector<float> src = RandomFloats(&rng, n);
      elementwise::Accumulate(got.data(), src.data(), n);
      elementwise::AccumulateScalar(scalar.data(), src.data(), n);
      for (size_t i = 0; i < n; ++i) want[i] += src[i];
    }
    SCOPED_TRACE(::testing::Message() << "size " << n);
    ExpectSameBits(want, got);
    ExpectSameBits(want, scalar);
  }
}

}  // namespace
}  // namespace blazeit
