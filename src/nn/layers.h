#ifndef BLAZEIT_NN_LAYERS_H_
#define BLAZEIT_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "nn/tensor.h"
#include "util/random.h"

namespace blazeit {

/// A trainable parameter buffer and its gradient, exposed to the optimizer.
struct ParamRef {
  std::vector<float>* value;
  std::vector<float>* grad;
};

/// Base class for differentiable layers. Forward caches whatever Backward
/// needs; layers are therefore stateful per batch and not thread-safe.
/// Infer is the stateless counterpart: the same forward math, bit for
/// bit, with no activation caching — safe to call concurrently from the
/// exec pool's inference shards (parameters must not be mutated
/// meanwhile, i.e. never during training).
class Layer {
 public:
  virtual ~Layer() = default;
  virtual Matrix Forward(const Matrix& input) = 0;
  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input).
  virtual Matrix Backward(const Matrix& grad_output) = 0;
  /// Backward for a network's first layer, whose dL/d(input) nothing
  /// reads: accumulates the same parameter gradients, bit for bit.
  virtual void BackwardParams(const Matrix& grad_output) {
    Backward(grad_output);
  }
  /// Forward math without the Backward cache; const and thread-safe.
  virtual Matrix Infer(const Matrix& input) const = 0;
  virtual std::vector<ParamRef> Params() { return {}; }
};

/// Fully-connected layer: y = x W + b, with He-initialized weights.
class Linear : public Layer {
 public:
  /// He-initializes W from `rng`; a null `rng` leaves W zero, for a layer
  /// whose trained weights the caller copies in through Params().
  Linear(int in_dim, int out_dim, Rng* rng);

  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output) override;
  /// dW and db only: skips the dX = dY W^T product.
  void BackwardParams(const Matrix& grad_output) override;
  Matrix Infer(const Matrix& input) const override;
  std::vector<ParamRef> Params() override;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }
  /// Weight matrix, [in_dim, out_dim].
  const Matrix& weights() const { return w_; }

 private:
  int in_dim_;
  int out_dim_;
  Matrix w_, w_grad_;
  std::vector<float> b_, b_grad_;
  Matrix cached_input_;
};

/// Rectified linear activation.
class ReLU : public Layer {
 public:
  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output) override;
  Matrix Infer(const Matrix& input) const override;

 private:
  Matrix cached_input_;
};

/// A simple layer pipeline: a whole network, not a Layer, because its
/// Backward stops at the parameter gradients.
class Sequential {
 public:
  Sequential() = default;

  void Add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  /// Layer-by-layer Forward / Infer; the first layer reads `input` in
  /// place. An empty pipeline is the identity.
  Matrix Forward(const Matrix& input);
  Matrix Infer(const Matrix& input) const;
  /// Accumulates every layer's parameter gradients given dL/d(output).
  /// dL/d(network input) is not computed: no caller reads it, so the
  /// first layer runs BackwardParams.
  void Backward(const Matrix& grad_output);
  std::vector<ParamRef> Params();

  size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Builds the "tiny" MLP used for specialization: input -> hidden ReLU
/// blocks -> num_classes logits. The paper's tiny ResNet plays the same
/// role (cheap, imperfect, correlated); see DESIGN.md.
std::unique_ptr<Sequential> BuildMlp(int input_dim,
                                     const std::vector<int>& hidden_dims,
                                     int num_classes, Rng* rng);

}  // namespace blazeit

#endif  // BLAZEIT_NN_LAYERS_H_
