#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/check.h"

namespace calibre::data {
namespace {

using tensor::Tensor;

// Fixed random-Fourier rendering mapping latent identities (class latent +
// nuisance latent) to observations: x_j = cos(w_j . u + b_j). The cosine
// nonlinearity makes class information non-linearly encoded in the raw
// input, so linear probes on raw pixels or random features are weak and the
// quality of the learned encoder decides personalization accuracy.
struct Renderer {
  Tensor w1;  // [latent_total, input]
  Tensor b1;  // [1, input]

  Tensor render(const Tensor& latents) const {
    Tensor projected = tensor::add(tensor::matmul(latents, w1), b1);
    for (auto& value : projected.storage()) value = std::cos(value);
    return projected;
  }
};

Renderer make_renderer(int latent_total, std::int64_t input_dim,
                       float frequency, rng::Generator& gen) {
  Renderer renderer;
  renderer.w1 =
      Tensor::randn(latent_total, input_dim, gen,
                    frequency / std::sqrt(static_cast<float>(latent_total)));
  renderer.b1 = Tensor::rand_uniform(1, input_dim, gen, 0.0f,
                                     2.0f * static_cast<float>(M_PI));
  return renderer;
}

// Class means: random directions scaled to `separation`.
Tensor make_class_means(int num_classes, int latent_dim, float separation,
                        rng::Generator& gen) {
  Tensor means = Tensor::randn(num_classes, latent_dim, gen);
  for (std::int64_t k = 0; k < means.rows(); ++k) {
    double norm_sq = 0.0;
    for (std::int64_t d = 0; d < means.cols(); ++d) {
      norm_sq += static_cast<double>(means(k, d)) * means(k, d);
    }
    const float scale =
        separation / std::max(1e-6f, static_cast<float>(std::sqrt(norm_sq)));
    for (std::int64_t d = 0; d < means.cols(); ++d) means(k, d) *= scale;
  }
  return means;
}

Dataset make_split(int samples, bool labeled, const Tensor& class_means,
                   const Renderer& renderer, const SyntheticConfig& config,
                   rng::Generator& gen) {
  Dataset split;
  split.num_classes = config.num_classes;
  if (samples == 0) {
    split.x = Tensor(0, config.input_dim);
    return split;
  }
  const int latent_total = config.latent_dim + config.nuisance_dim;
  Tensor latents(samples, latent_total);
  split.labels.resize(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const int k = static_cast<int>(
        gen.uniform_index(static_cast<std::uint64_t>(config.num_classes)));
    split.labels[static_cast<std::size_t>(i)] = labeled ? k : -1;
    for (int d = 0; d < config.latent_dim; ++d) {
      latents(i, d) = static_cast<float>(
          class_means(k, d) + gen.normal() * config.within_class_stddev);
    }
    for (int d = 0; d < config.nuisance_dim; ++d) {
      latents(i, config.latent_dim + d) =
          static_cast<float>(gen.normal() * config.nuisance_stddev);
    }
  }
  split.x = renderer.render(latents);
  for (auto& value : split.x.storage()) {
    value += static_cast<float>(gen.normal() * config.observation_noise);
  }
  // Keep only the class part of the latent: the oracle resamples nuisance.
  split.latents = tensor::slice_cols(latents, 0, config.latent_dim);
  return split;
}

}  // namespace

tensor::Tensor ViewOracle::render_view(const tensor::Tensor& class_latents,
                                       rng::Generator& gen) const {
  CALIBRE_CHECK_MSG(valid(), "ViewOracle not initialised");
  CALIBRE_CHECK(class_latents.cols() == config_.latent_dim);
  const std::int64_t n = class_latents.rows();
  const int latent_dim = config_.latent_dim;
  const int latent_total = latent_dim + config_.nuisance_dim;
  const std::int64_t input_dim = w_.cols();
  // One block of draws per stage, consumed in the order the per-element
  // normal() calls made them: row by row, class jitter then nuisance, and
  // then the observation noise of every output element.
  std::vector<double> draws(
      static_cast<std::size_t>(n * std::max<std::int64_t>(latent_total,
                                                          input_dim)));
  gen.fill_normal(draws.data(), static_cast<std::size_t>(n * latent_total));
  Tensor full = Tensor::uninit(n, latent_total);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* class_row = class_latents.data() + i * latent_dim;
    const double* z = draws.data() + i * latent_total;
    float* row = full.data() + i * latent_total;
    for (int d = 0; d < latent_dim; ++d) {
      row[d] = class_row[d] +
               static_cast<float>(z[d] * config_.view_latent_jitter);
    }
    for (int d = latent_dim; d < latent_total; ++d) {
      row[d] = static_cast<float>(z[d] * config_.nuisance_stddev);
    }
  }
  Tensor view = tensor::matmul(full, w_);
  gen.fill_normal(draws.data(), static_cast<std::size_t>(view.size()));
  const float* bias = b_.data();
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = view.data() + i * input_dim;
    const double* z = draws.data() + i * input_dim;
    for (std::int64_t j = 0; j < input_dim; ++j) {
      row[j] = std::cos(row[j] + bias[j]) +
               static_cast<float>(z[j] * config_.observation_noise);
    }
  }
  return view;
}

SyntheticDataset make_synthetic(const SyntheticConfig& config) {
  CALIBRE_CHECK(config.num_classes > 0 && config.latent_dim > 0);
  rng::Generator gen(config.seed);
  const Tensor class_means = make_class_means(
      config.num_classes, config.latent_dim, config.class_separation, gen);
  const Renderer renderer =
      make_renderer(config.latent_dim + config.nuisance_dim, config.input_dim,
                    config.render_frequency, gen);

  SyntheticDataset out;
  out.config = config;
  out.oracle = ViewOracle(renderer.w1, renderer.b1, config);
  const auto shared_oracle = std::make_shared<const ViewOracle>(out.oracle);
  out.train = make_split(config.train_samples, /*labeled=*/true, class_means,
                         renderer, config, gen);
  out.test = make_split(config.test_samples, /*labeled=*/true, class_means,
                        renderer, config, gen);
  out.unlabeled = make_split(config.unlabeled_samples, /*labeled=*/false,
                             class_means, renderer, config, gen);
  out.train.oracle = shared_oracle;
  out.test.oracle = shared_oracle;
  out.unlabeled.oracle = shared_oracle;
  return out;
}

SyntheticConfig cifar10_like() {
  SyntheticConfig config;
  config.num_classes = 10;
  config.input_dim = 48;
  config.latent_dim = 16;
  config.train_samples = 12000;
  config.test_samples = 4000;
  config.class_separation = 5.0f;
  config.nuisance_stddev = 2.5f;
  config.render_frequency = 1.0f;
  config.view_latent_jitter = 0.5f;
  config.seed = 20241010;
  return config;
}

SyntheticConfig cifar100_like() {
  SyntheticConfig config;
  config.num_classes = 100;
  config.input_dim = 64;
  config.latent_dim = 24;
  config.train_samples = 20000;
  config.test_samples = 8000;
  // 100 classes need wider spacing to stay separable at this scale.
  config.class_separation = 7.0f;
  config.nuisance_stddev = 2.5f;
  config.render_frequency = 1.0f;
  config.view_latent_jitter = 0.5f;
  config.seed = 20241100;
  return config;
}

SyntheticConfig stl10_like() {
  SyntheticConfig config;
  config.num_classes = 10;
  config.input_dim = 48;
  config.latent_dim = 16;
  // STL-10: only 5,000 labeled training samples but 100,000 unlabeled ones.
  // Scaled: a small labeled split plus a large SSL-only pool.
  config.train_samples = 3000;
  config.test_samples = 4000;
  config.unlabeled_samples = 12000;
  config.class_separation = 5.0f;
  config.nuisance_stddev = 2.5f;
  config.render_frequency = 1.0f;
  config.view_latent_jitter = 0.5f;
  config.seed = 20241020;
  return config;
}

SyntheticConfig preset_by_name(const std::string& name) {
  if (name == "cifar10") return cifar10_like();
  if (name == "cifar100") return cifar100_like();
  if (name == "stl10") return stl10_like();
  CALIBRE_CHECK_MSG(false, "unknown dataset preset: " << name);
  return {};
}

}  // namespace calibre::data
