// Tests for the bench harness (experiment construction shared by all the
// paper-reproduction benches).
#include <cstdlib>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "flapi/model.h"

namespace calibre::bench {
namespace {

TEST(Harness, SettingLabels) {
  Setting quantity{"cifar10", "quantity", 2, 0.3};
  EXPECT_EQ(quantity.label(), "cifar10 Q-non-iid (S=2)");
  Setting dirichlet{"stl10", "dirichlet", 2, 0.3};
  EXPECT_EQ(dirichlet.label(), "stl10 D-non-iid (alpha=0.3)");
}

TEST(Harness, ScaleEnvOverrides) {
  ::setenv("CALIBRE_TRAIN_CLIENTS", "7", 1);
  ::setenv("CALIBRE_ROUNDS", "3", 1);
  const Scale scale = resolve_scale();
  EXPECT_EQ(scale.train_clients, 7);
  EXPECT_EQ(scale.rounds, 3);
  ::unsetenv("CALIBRE_TRAIN_CLIENTS");
  ::unsetenv("CALIBRE_ROUNDS");
  const Scale defaults = resolve_scale();
  EXPECT_EQ(defaults.train_clients, 20);
  EXPECT_EQ(defaults.rounds, 40);
}

TEST(Harness, FastModeShrinksEverything) {
  ::setenv("CALIBRE_FAST", "1", 1);
  const Scale scale = resolve_scale();
  ::unsetenv("CALIBRE_FAST");
  EXPECT_LE(scale.train_clients, 8);
  EXPECT_LE(scale.rounds, 5);
}

TEST(Harness, WorkbenchIsDeterministic) {
  const Setting setting{"cifar10", "dirichlet", 2, 0.3};
  Scale scale;
  scale.train_clients = 4;
  scale.novel_clients = 2;
  scale.samples_per_client = 30;
  scale.test_samples_per_client = 10;
  const Workbench a = build_workbench(setting, scale);
  const Workbench b = build_workbench(setting, scale);
  ASSERT_EQ(a.fed.num_train_clients(), 4);
  ASSERT_EQ(a.fed.num_novel_clients(), 2);
  EXPECT_TRUE(
      tensor::allclose(a.fed.train_shard(0).x, b.fed.train_shard(0).x));
  EXPECT_EQ(a.fed.train_shard(2).labels, b.fed.train_shard(2).labels);
}

TEST(Harness, QuantityWorkbenchClampsClasses) {
  // classes_per_client larger than the dataset's class count must clamp.
  const Setting setting{"cifar10", "quantity", 99, 0.3};
  Scale scale;
  scale.train_clients = 3;
  scale.novel_clients = 1;
  scale.samples_per_client = 20;
  scale.test_samples_per_client = 10;
  const Workbench workbench = build_workbench(setting, scale);
  EXPECT_EQ(workbench.fed.num_train_clients(), 3);
}

TEST(Harness, PoolClientSamples) {
  const Setting setting{"cifar10", "dirichlet", 2, 0.3};
  Scale scale;
  scale.train_clients = 5;
  scale.novel_clients = 1;
  scale.samples_per_client = 20;
  scale.test_samples_per_client = 12;
  const Workbench workbench = build_workbench(setting, scale);
  const PooledSamples pooled = pool_client_samples(workbench.fed, 3, 5);
  EXPECT_EQ(pooled.x.rows(), 15);
  EXPECT_EQ(pooled.labels.size(), 15u);
  EXPECT_EQ(pooled.client_ids.size(), 15u);
  EXPECT_EQ(pooled.client_ids.front(), 0);
  EXPECT_EQ(pooled.client_ids.back(), 2);
}

TEST(Harness, SupervisedFeatureLayouts) {
  const Setting setting{"cifar10", "dirichlet", 2, 0.3};
  Scale scale;
  scale.train_clients = 3;
  scale.novel_clients = 1;
  scale.samples_per_client = 20;
  scale.test_samples_per_client = 10;
  const Workbench workbench = build_workbench(setting, scale);
  const tensor::Tensor x = workbench.fed.test_shard(0).x;

  // Full-model layout (FedAvg).
  const fl::EncoderHeadModel model =
      fl::make_encoder_head(workbench.config, workbench.config.seed);
  const nn::ModelState full =
      nn::ModelState::from_parameters(model.all_parameters());
  const tensor::Tensor f1 =
      supervised_features("FedAvg", full, workbench.config, x);
  EXPECT_EQ(f1.rows(), x.rows());
  EXPECT_EQ(f1.cols(), workbench.config.encoder.feature_dim);

  // Encoder-only layout (FedBABU).
  const nn::ModelState encoder_only =
      nn::ModelState::from_parameters(model.encoder_parameters());
  const tensor::Tensor f2 =
      supervised_features("FedBABU", encoder_only, workbench.config, x);
  EXPECT_EQ(f2.cols(), workbench.config.encoder.feature_dim);

  // SCAFFOLD packs [model | control].
  std::vector<float> packed = full.values();
  packed.insert(packed.end(), full.values().begin(), full.values().end());
  const tensor::Tensor f3 = supervised_features(
      "SCAFFOLD", nn::ModelState(packed), workbench.config, x);
  // Control half is ignored: same result as the plain full layout.
  EXPECT_TRUE(tensor::allclose(f1, f3));
}

}  // namespace
}  // namespace calibre::bench
