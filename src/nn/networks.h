// Network architectures used throughout the reproduction.
//
// The paper uses a ResNet-18 "Encoder" plus a linear-classifier "Head". At
// CPU scale the encoder is an MLP (see DESIGN.md §2 for the substitution
// argument); the head is the same lightweight linear classifier.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace calibre::nn {

// Architecture hyperparameters for the encoder.
struct EncoderConfig {
  std::int64_t input_dim = 48;
  std::vector<std::int64_t> hidden_dims = {128, 128};
  std::int64_t feature_dim = 64;
  bool layer_norm = true;

  bool operator==(const EncoderConfig&) const = default;
};

// The feature backbone (paper: ResNet-18 "Encoder", output 512-d; here an
// MLP, output feature_dim). This is the global model exchanged in FL.
class MlpEncoder : public Module {
 public:
  MlpEncoder(const EncoderConfig& config, rng::Generator& gen);
  // The same layers, allocated without drawing an init (all zero).
  explicit MlpEncoder(const EncoderConfig& config);

  ag::VarPtr forward(const ag::VarPtr& x) override;
  void collect_parameters(std::vector<ag::VarPtr>& out) const override;

  std::int64_t feature_dim() const { return config_.feature_dim; }
  std::int64_t input_dim() const { return config_.input_dim; }
  const EncoderConfig& config() const { return config_; }

 private:
  // Draws the init from `gen`, or leaves every parameter zero when null.
  MlpEncoder(const EncoderConfig& config, rng::Generator* gen);

  EncoderConfig config_;
  Sequential body_;
};

// Two-layer MLP projection head used by all SSL methods (z -> h).
class ProjectionHead : public Module {
 public:
  ProjectionHead(std::int64_t in_dim, std::int64_t hidden_dim,
                 std::int64_t out_dim, rng::Generator& gen);

  ag::VarPtr forward(const ag::VarPtr& x) override;
  void collect_parameters(std::vector<ag::VarPtr>& out) const override;

  std::int64_t out_dim() const { return out_dim_; }

 private:
  std::int64_t out_dim_;
  Sequential body_;
};

// Prediction head for BYOL / SimSiam (same two-layer MLP shape).
using PredictionHead = ProjectionHead;

// The personalized model phi: a single linear layer on frozen encoder
// features ("a lightweight personalized model, specifically a linear
// classifier, would be sufficient" — paper §I).
class LinearClassifier : public Module {
 public:
  LinearClassifier(std::int64_t feature_dim, std::int64_t num_classes,
                   rng::Generator& gen);
  // Allocated without drawing an init (all zero).
  LinearClassifier(std::int64_t feature_dim, std::int64_t num_classes);

  ag::VarPtr forward(const ag::VarPtr& x) override;
  void collect_parameters(std::vector<ag::VarPtr>& out) const override;

  std::int64_t num_classes() const { return num_classes_; }

 private:
  std::int64_t num_classes_;
  Linear linear_;
};

}  // namespace calibre::nn
