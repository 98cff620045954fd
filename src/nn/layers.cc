#include "nn/layers.h"

#include <cmath>

#include "nn/elementwise_kernels.h"

namespace blazeit {

Linear::Linear(int in_dim, int out_dim, Rng* rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      w_(in_dim, out_dim),
      w_grad_(in_dim, out_dim),
      b_(static_cast<size_t>(out_dim), 0.0f),
      b_grad_(b_.size(), 0.0f) {
  if (rng == nullptr) return;  // weights to be loaded by the caller
  // He initialization for ReLU networks.
  double stddev = std::sqrt(2.0 / in_dim);
  for (float& w : w_.data()) w = static_cast<float>(rng->Normal(0.0, stddev));
}

Matrix Linear::Forward(const Matrix& input) {
  cached_input_ = input;
  return Infer(input);
}

Matrix Linear::Infer(const Matrix& input) const {
  Matrix out = MatMul(input, w_);
  for (int r = 0; r < out.rows(); ++r) {
    float* row = out.Row(r);
    for (int c = 0; c < out_dim_; ++c) row[c] += b_[static_cast<size_t>(c)];
  }
  return out;
}

void Linear::BackwardParams(const Matrix& grad_output) {
  // dW += X^T dY ; db += colsum(dY).
  Matrix dw = MatMulTransposeA(cached_input_, grad_output);
  elementwise::Accumulate(w_grad_.data().data(), dw.data().data(),
                          w_grad_.data().size());
  for (int r = 0; r < grad_output.rows(); ++r) {
    const float* row = grad_output.Row(r);
    for (int c = 0; c < out_dim_; ++c) b_grad_[static_cast<size_t>(c)] += row[c];
  }
}

Matrix Linear::Backward(const Matrix& grad_output) {
  BackwardParams(grad_output);
  // dX = dY W^T.
  return MatMulTransposeB(grad_output, w_);
}

std::vector<ParamRef> Linear::Params() {
  return {{&w_.data(), &w_grad_.data()}, {&b_, &b_grad_}};
}

Matrix ReLU::Forward(const Matrix& input) {
  cached_input_ = input;
  return Infer(input);
}

Matrix ReLU::Infer(const Matrix& input) const {
  Matrix out = input;
  for (float& v : out.data()) v = v > 0.0f ? v : 0.0f;
  return out;
}

Matrix ReLU::Backward(const Matrix& grad_output) {
  Matrix out = grad_output;
  const std::vector<float>& x = cached_input_.data();
  std::vector<float>& g = out.data();
  for (size_t i = 0; i < g.size(); ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
  return out;
}

Matrix Sequential::Forward(const Matrix& input) {
  if (layers_.empty()) return input;
  Matrix x = layers_.front()->Forward(input);
  for (size_t i = 1; i < layers_.size(); ++i) x = layers_[i]->Forward(x);
  return x;
}

Matrix Sequential::Infer(const Matrix& input) const {
  if (layers_.empty()) return input;
  Matrix x = layers_.front()->Infer(input);
  for (size_t i = 1; i < layers_.size(); ++i) x = layers_[i]->Infer(x);
  return x;
}

void Sequential::Backward(const Matrix& grad_output) {
  if (layers_.empty()) return;
  const Matrix* grad = &grad_output;
  Matrix g;
  for (size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i]->Backward(*grad);
    grad = &g;
  }
  layers_.front()->BackwardParams(*grad);
}

std::vector<ParamRef> Sequential::Params() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) {
    for (ParamRef p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::unique_ptr<Sequential> BuildMlp(int input_dim,
                                     const std::vector<int>& hidden_dims,
                                     int num_classes, Rng* rng) {
  auto model = std::make_unique<Sequential>();
  int dim = input_dim;
  for (int hidden : hidden_dims) {
    model->Add(std::make_unique<Linear>(dim, hidden, rng));
    model->Add(std::make_unique<ReLU>());
    dim = hidden;
  }
  model->Add(std::make_unique<Linear>(dim, num_classes, rng));
  return model;
}

}  // namespace blazeit
