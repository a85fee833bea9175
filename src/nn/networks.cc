#include "nn/networks.h"

#include "common/check.h"

namespace calibre::nn {

MlpEncoder::MlpEncoder(const EncoderConfig& config, rng::Generator& gen)
    : MlpEncoder(config, &gen) {}

MlpEncoder::MlpEncoder(const EncoderConfig& config)
    : MlpEncoder(config, nullptr) {}

MlpEncoder::MlpEncoder(const EncoderConfig& config, rng::Generator* gen)
    : config_(config) {
  CALIBRE_CHECK(config.input_dim > 0 && config.feature_dim > 0);
  const auto linear = [gen](std::int64_t in, std::int64_t out) {
    return gen != nullptr ? std::make_shared<Linear>(in, out, *gen)
                          : std::make_shared<Linear>(in, out);
  };
  std::int64_t in_dim = config.input_dim;
  for (const std::int64_t hidden : config.hidden_dims) {
    body_.push_back(linear(in_dim, hidden));
    if (config.layer_norm) {
      body_.push_back(std::make_shared<LayerNorm>(hidden));
    }
    body_.push_back(std::make_shared<ReLU>());
    in_dim = hidden;
  }
  body_.push_back(linear(in_dim, config.feature_dim));
}

ag::VarPtr MlpEncoder::forward(const ag::VarPtr& x) {
  return body_.forward(x);
}

void MlpEncoder::collect_parameters(std::vector<ag::VarPtr>& out) const {
  body_.collect_parameters(out);
}

ProjectionHead::ProjectionHead(std::int64_t in_dim, std::int64_t hidden_dim,
                               std::int64_t out_dim, rng::Generator& gen)
    : out_dim_(out_dim) {
  body_.push_back(std::make_shared<Linear>(in_dim, hidden_dim, gen));
  body_.push_back(std::make_shared<ReLU>());
  body_.push_back(std::make_shared<Linear>(hidden_dim, out_dim, gen));
}

ag::VarPtr ProjectionHead::forward(const ag::VarPtr& x) {
  return body_.forward(x);
}

void ProjectionHead::collect_parameters(std::vector<ag::VarPtr>& out) const {
  body_.collect_parameters(out);
}

LinearClassifier::LinearClassifier(std::int64_t feature_dim,
                                   std::int64_t num_classes,
                                   rng::Generator& gen)
    : num_classes_(num_classes), linear_(feature_dim, num_classes, gen) {}

LinearClassifier::LinearClassifier(std::int64_t feature_dim,
                                   std::int64_t num_classes)
    : num_classes_(num_classes), linear_(feature_dim, num_classes) {}

ag::VarPtr LinearClassifier::forward(const ag::VarPtr& x) {
  return linear_.forward(x);
}

void LinearClassifier::collect_parameters(std::vector<ag::VarPtr>& out) const {
  linear_.collect_parameters(out);
}

}  // namespace calibre::nn
