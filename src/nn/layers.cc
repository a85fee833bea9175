#include "nn/layers.h"

#include <cmath>

#include "common/check.h"

namespace calibre::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               rng::Generator& gen, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  CALIBRE_CHECK(in_features > 0 && out_features > 0);
  const float k = 1.0f / std::sqrt(static_cast<float>(in_features));
  weight_ = ag::parameter(
      tensor::Tensor::rand_uniform(in_features, out_features, gen, -k, k));
  if (bias) {
    bias_ = ag::parameter(
        tensor::Tensor::rand_uniform(1, out_features, gen, -k, k));
  }
}

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  CALIBRE_CHECK(in_features > 0 && out_features > 0);
  weight_ = ag::parameter(tensor::Tensor(in_features, out_features));
  if (bias) bias_ = ag::parameter(tensor::Tensor(1, out_features));
}

ag::VarPtr Linear::forward(const ag::VarPtr& x) {
  CALIBRE_CHECK_MSG(x->value.cols() == in_features_,
                    "Linear expects " << in_features_ << " features, got "
                                      << x->value.shape_string());
  return ag::affine(x, weight_, bias_);
}

void Linear::collect_parameters(std::vector<ag::VarPtr>& out) const {
  out.push_back(weight_);
  if (bias_) out.push_back(bias_);
}

LayerNorm::LayerNorm(std::int64_t features, float eps)
    : features_(features), eps_(eps) {
  CALIBRE_CHECK(features > 0);
  gamma_ = ag::parameter(tensor::Tensor::ones(1, features));
  beta_ = ag::parameter(tensor::Tensor::zeros(1, features));
}

ag::VarPtr LayerNorm::forward(const ag::VarPtr& x) {
  CALIBRE_CHECK_MSG(x->value.cols() == features_,
                    "LayerNorm expects " << features_ << " features, got "
                                         << x->value.shape_string());
  return ag::layer_norm(x, gamma_, beta_, eps_);
}

void LayerNorm::collect_parameters(std::vector<ag::VarPtr>& out) const {
  out.push_back(gamma_);
  out.push_back(beta_);
}

}  // namespace calibre::nn
