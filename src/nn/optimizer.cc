#include "nn/optimizer.h"

#include <algorithm>

#include "nn/elementwise_kernels.h"

namespace blazeit {

SgdOptimizer::SgdOptimizer(std::vector<ParamRef> params, double lr,
                           double momentum)
    : params_(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (const ParamRef& p : params_) {
    velocity_.emplace_back(p.value->size(), 0.0f);
  }
}

void SgdOptimizer::Step() {
  const float m = static_cast<float>(momentum_);
  const float lr = static_cast<float>(lr_);
  for (size_t i = 0; i < params_.size(); ++i) {
    std::vector<float>& value = *params_[i].value;
    elementwise::SgdMomentumStep(value.data(), velocity_[i].data(),
                                 params_[i].grad->data(), value.size(), m,
                                 lr);
  }
}

void SgdOptimizer::ZeroGrad() {
  for (const ParamRef& p : params_) {
    std::fill(p.grad->begin(), p.grad->end(), 0.0f);
  }
}

}  // namespace blazeit
