#include "flapi/model.h"

#include <optional>

#include "common/check.h"
#include "data/synthetic.h"

namespace calibre::fl {

tensor::Tensor training_view(const data::Dataset& dataset,
                             const std::vector<int>& batch,
                             const data::AugmentConfig& augment,
                             rng::Generator& gen, bool allow_oracle) {
  if (allow_oracle && dataset.oracle && dataset.oracle->valid() &&
      dataset.latents.rows() > 0) {
    return dataset.oracle->render_view(
        tensor::take_rows(dataset.latents, batch), gen);
  }
  return data::augment(tensor::take_rows(dataset.x, batch), augment, gen);
}

namespace {

// Every input of make_encoder_head's seeded draw.
struct InitKey {
  nn::EncoderConfig encoder;
  int num_classes = 0;
  std::uint64_t seed = 0;

  bool operator==(const InitKey&) const = default;
};

}  // namespace

EncoderHeadModel make_encoder_head(const FlConfig& config,
                                   std::uint64_t seed) {
  // The algorithms rebuild the same seeded model for every local update and
  // personalization, then mostly overwrite it. Each thread keeps its last
  // draw: one entry bounds the memory, and being per thread it needs no
  // lock. A build with the same key allocates the layers without drawing
  // and copies the stored state; any other key draws afresh.
  thread_local std::optional<InitKey> last_key;
  thread_local nn::ModelState last_init;
  InitKey key{config.encoder, config.num_classes, seed};
  EncoderHeadModel model;
  if (last_key == key) {
    model.encoder = std::make_unique<nn::MlpEncoder>(config.encoder);
    model.head = std::make_unique<nn::LinearClassifier>(
        config.encoder.feature_dim, config.num_classes);
    last_init.apply_to(model.all_parameters());
    return model;
  }
  rng::Generator gen(seed);
  model.encoder = std::make_unique<nn::MlpEncoder>(config.encoder, gen);
  model.head = std::make_unique<nn::LinearClassifier>(
      config.encoder.feature_dim, config.num_classes, gen);
  last_init = nn::ModelState::from_parameters(model.all_parameters());
  last_key = std::move(key);
  return model;
}

float train_supervised(EncoderHeadModel& model,
                       const std::vector<ag::VarPtr>& params,
                       const data::Dataset& dataset, const FlConfig& config,
                       int epochs, rng::Generator& gen) {
  CALIBRE_CHECK(dataset.size() > 0);
  nn::Sgd optimizer(params, config.supervised_opt);
  double total_loss = 0.0;
  int steps = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto batches =
        data::make_batches(dataset.size(), config.batch_size, gen,
                           /*min_batch=*/2);
    for (const auto& batch : batches) {
      std::vector<int> y;
      y.reserve(batch.size());
      for (const int index : batch) {
        y.push_back(dataset.labels[static_cast<std::size_t>(index)]);
      }
      const tensor::Tensor view = training_view(
          dataset, batch, config.augment, gen, config.supervised_oracle_views);
      optimizer.zero_grad();
      const ag::VarPtr loss =
          ag::cross_entropy(model.logits(ag::constant(view)), y);
      ag::backward(loss);
      optimizer.step();
      total_loss += loss->value(0, 0);
      ++steps;
    }
  }
  return steps == 0 ? 0.0f : static_cast<float>(total_loss / steps);
}

double finetune_and_eval(EncoderHeadModel& model,
                         const std::vector<ag::VarPtr>& params,
                         const data::Dataset& train, const data::Dataset& test,
                         const ProbeConfig& probe, std::uint64_t seed) {
  CALIBRE_CHECK(train.size() > 0);
  rng::Generator gen(seed);
  nn::Sgd optimizer(params, nn::SgdConfig{probe.learning_rate, probe.momentum,
                                          /*weight_decay=*/0.0f});
  for (int epoch = 0; epoch < probe.epochs; ++epoch) {
    const auto batches =
        data::make_batches(train.size(), probe.batch_size, gen);
    for (const auto& batch : batches) {
      std::vector<int> y;
      y.reserve(batch.size());
      for (const int index : batch) {
        y.push_back(train.labels[static_cast<std::size_t>(index)]);
      }
      optimizer.zero_grad();
      const ag::VarPtr logits = model.logits(
          ag::constant(tensor::take_rows(train.x, batch)));
      ag::backward(ag::cross_entropy(logits, y));
      optimizer.step();
    }
  }
  return evaluate_accuracy(model, test);
}

double evaluate_accuracy(EncoderHeadModel& model,
                         const data::Dataset& dataset) {
  if (dataset.size() == 0) return 0.0;
  // Evaluation forward: values only, no tape.
  const ag::NoGradGuard no_grad;
  const ag::VarPtr logits = model.logits(ag::constant(dataset.x));
  std::int64_t correct = 0;
  for (std::int64_t r = 0; r < dataset.size(); ++r) {
    if (static_cast<int>(logits->value.argmax_row(r)) ==
        dataset.labels[static_cast<std::size_t>(r)]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

}  // namespace calibre::fl
