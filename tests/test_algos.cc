// Tests for the algorithm zoo: a parameterized end-to-end federation for
// every registered method, plus algorithm-specific behavioural checks.
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algos/client_store.h"
#include "algos/fedbabu.h"
#include "algos/lg_fedavg.h"
#include "algos/registry.h"
#include "algos/scaffold.h"
#include "common/check.h"
#include "fl/fed_data.h"
#include "fl/runner.h"

namespace calibre::algos {
namespace {

// Tiny shared workbench so the parameterized suite stays fast.
struct TinyWorld {
  data::SyntheticDataset synth;
  fl::FedDataset fed;
  fl::FlConfig config;
};

const TinyWorld& tiny_world() {
  static const TinyWorld* world = [] {
    auto* w = new TinyWorld();
    data::SyntheticConfig dataset_config;
    dataset_config.num_classes = 4;
    dataset_config.input_dim = 16;
    dataset_config.latent_dim = 6;
    dataset_config.train_samples = 400;
    dataset_config.test_samples = 200;
    dataset_config.unlabeled_samples = 80;
    dataset_config.seed = 77;
    w->synth = data::make_synthetic(dataset_config);
    data::PartitionConfig partition_config;
    partition_config.num_clients = 5;  // 4 train + 1 novel
    partition_config.samples_per_client = 40;
    partition_config.test_samples_per_client = 16;
    rng::Generator partition_gen(78);
    const data::Partition partition = data::partition_dirichlet(
        w->synth.train, w->synth.test, partition_config, 0.3, partition_gen);
    rng::Generator fed_gen(79);
    w->fed = fl::build_fed_dataset(w->synth, partition, 4, fed_gen);

    w->config.encoder.input_dim = 16;
    w->config.encoder.hidden_dims = {16};
    w->config.encoder.feature_dim = 8;
    w->config.num_classes = 4;
    w->config.rounds = 2;
    w->config.clients_per_round = 2;
    w->config.local_epochs = 1;
    w->config.num_train_clients = 4;
    w->config.threads = 2;
    return w;
  }();
  return *world;
}

class AlgorithmSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(AlgorithmSuite, EndToEndFederationProducesValidAccuracies) {
  const TinyWorld& world = tiny_world();
  fl::FlConfig config = world.config;
  if (GetParam().rfind("Script-", 0) == 0) config.rounds = 0;
  const auto algorithm = make_algorithm(GetParam(), config);
  EXPECT_EQ(algorithm->name(), GetParam());
  const fl::RunResult result =
      fl::run_federated(*algorithm, world.fed, /*personalize_novel=*/true);
  EXPECT_EQ(result.algorithm, GetParam());
  ASSERT_EQ(result.train_accuracies.size(), 4u);
  ASSERT_EQ(result.novel_accuracies.size(), 1u);
  for (const double accuracy : result.train_accuracies) {
    EXPECT_GE(accuracy, 0.0);
    EXPECT_LE(accuracy, 1.0);
  }
  if (config.rounds > 0) {
    // Two rounds x two clients, one request + one response each.
    EXPECT_EQ(result.traffic.messages, 8u);
    EXPECT_GT(result.traffic.logical_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, AlgorithmSuite,
    ::testing::ValuesIn(registered_algorithms()),
    [](const auto& suite_info) {
      std::string name = suite_info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_algorithm("NoSuchMethod", tiny_world().config),
               CheckError);
  EXPECT_THROW(make_algorithm("pFL-NoSuchSsl", tiny_world().config),
               CheckError);
  EXPECT_THROW(make_algorithm("Calibre (NoSuchSsl)", tiny_world().config),
               CheckError);
}

TEST(Registry, ListsAllFamilies) {
  const auto names = registered_algorithms();
  EXPECT_GE(names.size(), 26u);
  const std::set<std::string> set(names.begin(), names.end());
  EXPECT_TRUE(set.count("FedAvg"));
  EXPECT_TRUE(set.count("Calibre (SimCLR)"));
  EXPECT_TRUE(set.count("pFL-SMoG"));
  // Every registered name constructs.
  for (const auto& name : names) {
    EXPECT_NE(make_algorithm(name, tiny_world().config), nullptr) << name;
  }
}

TEST(FedBabuBehaviour, HeadStaysAtSharedRandomInit) {
  // FedBABU's federated state is encoder-only; its size proves the head is
  // not part of what clients exchange or train.
  const TinyWorld& world = tiny_world();
  FedBabu fedbabu(world.config);
  const fl::EncoderHeadModel reference =
      fl::make_encoder_head(world.config, world.config.seed);
  const std::size_t encoder_size =
      nn::ModelState::from_parameters(reference.encoder_parameters()).size();
  EXPECT_EQ(fedbabu.initialize().size(), encoder_size);
}

TEST(ScaffoldBehaviour, StatePacksModelAndControl) {
  const TinyWorld& world = tiny_world();
  Scaffold scaffold(world.config, false);
  const fl::EncoderHeadModel reference =
      fl::make_encoder_head(world.config, world.config.seed);
  const std::size_t model_size =
      nn::ModelState::from_parameters(reference.all_parameters()).size();
  const nn::ModelState initial = scaffold.initialize();
  EXPECT_EQ(initial.size(), 2 * model_size);
  // Control starts at zero.
  for (std::size_t i = model_size; i < initial.size(); ++i) {
    EXPECT_FLOAT_EQ(initial.values()[i], 0.0f);
  }
}

TEST(ScaffoldBehaviour, LocalUpdateReturnsModelAndControlDelta) {
  const TinyWorld& world = tiny_world();
  Scaffold scaffold(world.config, false);
  const nn::ModelState global = scaffold.initialize();
  const data::Dataset train = world.fed.train_shard(0);
  const tensor::Tensor ssl_pool = world.fed.client_ssl_pool(0, train);
  fl::ClientContext ctx;
  ctx.client_id = 0;
  ctx.train = &train;
  ctx.ssl_pool = &ssl_pool;
  ctx.seed = 5;
  const fl::ClientUpdate update = scaffold.local_update(global, ctx);
  EXPECT_EQ(update.state.size(), global.size());
  // Aggregation accepts the update and moves the control variate.
  const nn::ModelState next = scaffold.aggregate(global, {update}, 0);
  EXPECT_EQ(next.size(), global.size());
}

// Merge algebra for the aggregator behind every registered algorithm: a
// disjoint shard split merged in shard order must reproduce the flat fold
// bit for bit — for the default weighted fold, the weight-fn family
// (q-FedAvg's loss^q, Calibre's divergence weights) and SCAFFOLD's
// two-accumulator state. Separate algorithm instances serve the flat and
// sharded folds because finish() may advance server-side state in place
// (SCAFFOLD's control variate).
TEST(MergeableAggregators, ShardMergeMatchesFlatFoldBitwise) {
  const TinyWorld& world = tiny_world();
  for (const std::string& name : registered_algorithms()) {
    const auto flat_algo = make_algorithm(name, world.config);
    const auto shard_algo = make_algorithm(name, world.config);
    const nn::ModelState global = flat_algo->initialize();
    // Script-* algorithms have no training stage, hence nothing to fold.
    if (global.empty()) continue;

    rng::Generator gen(91);
    std::vector<fl::ClientUpdate> updates;
    for (int k = 0; k < 6; ++k) {
      fl::ClientUpdate update;
      std::vector<float> values = global.values();
      for (float& v : values) {
        v += 0.05f * static_cast<float>(gen.normal());
      }
      update.state = nn::ModelState(std::move(values));
      update.weight = static_cast<float>(10 + 3 * k);
      update.scalars["loss"] = 0.3f + 0.2f * static_cast<float>(k % 3);
      update.scalars["divergence"] = 0.1f + 0.05f * static_cast<float>(k);
      updates.push_back(std::move(update));
    }

    auto flat = flat_algo->make_aggregator(global, /*round=*/0);
    for (const fl::ClientUpdate& update : updates) flat->fold(update);
    const nn::ModelState reference = flat->finish();

    const int shards = 3;
    std::vector<std::unique_ptr<fl::StreamingAggregator>> partials;
    for (int s = 0; s < shards; ++s) {
      partials.push_back(shard_algo->make_aggregator(global, /*round=*/0));
    }
    for (std::size_t k = 0; k < updates.size(); ++k) {
      partials[k % shards]->fold(updates[k]);
    }
    auto root = std::move(partials.front());
    for (int s = 1; s < shards; ++s) {
      root->merge(std::move(*partials[static_cast<std::size_t>(s)]));
    }
    EXPECT_EQ(root->folded(), static_cast<int>(updates.size())) << name;
    EXPECT_EQ(root->finish().values(), reference.values()) << name;
  }
}

// Regrouping the same partials must not change a single bit (integer
// accumulators make the merge exactly associative) — checked on SCAFFOLD,
// whose two-accumulator state is the most intricate merge.
TEST(MergeableAggregators, ScaffoldMergeIsAssociative) {
  const TinyWorld& world = tiny_world();
  auto build = [&](const nn::ModelState& global, Scaffold& scaffold,
                   const std::vector<fl::ClientUpdate>& updates) {
    std::vector<std::unique_ptr<fl::StreamingAggregator>> partials;
    for (int s = 0; s < 3; ++s) {
      partials.push_back(scaffold.make_aggregator(global, 0));
    }
    for (std::size_t k = 0; k < updates.size(); ++k) {
      partials[k % 3]->fold(updates[k]);
    }
    return partials;
  };
  Scaffold left_algo(world.config, false);
  Scaffold right_algo(world.config, false);
  const nn::ModelState global = left_algo.initialize();
  rng::Generator gen(92);
  std::vector<fl::ClientUpdate> updates;
  for (int k = 0; k < 7; ++k) {
    fl::ClientUpdate update;
    std::vector<float> values = global.values();
    for (float& v : values) v += 0.02f * static_cast<float>(gen.normal());
    update.state = nn::ModelState(std::move(values));
    update.weight = static_cast<float>(5 + k);
    updates.push_back(std::move(update));
  }
  auto left = build(global, left_algo, updates);    // (a + b) + c
  left[0]->merge(std::move(*left[1]));
  left[0]->merge(std::move(*left[2]));
  auto right = build(global, right_algo, updates);  // a + (b + c)
  right[1]->merge(std::move(*right[2]));
  right[0]->merge(std::move(*right[1]));
  EXPECT_EQ(left[0]->finish().values(), right[0]->finish().values());
}

TEST(LgFedAvgBehaviour, GlobalStateIsHeadOnly) {
  const TinyWorld& world = tiny_world();
  LgFedAvg lg(world.config);
  const fl::EncoderHeadModel reference =
      fl::make_encoder_head(world.config, world.config.seed);
  EXPECT_EQ(lg.initialize().size(),
            nn::ModelState::from_parameters(reference.head_parameters())
                .size());
}

TEST(LgFedAvgBehaviour, ClientFeaturesUseLocalEncoder) {
  const TinyWorld& world = tiny_world();
  LgFedAvg lg(world.config);
  const nn::ModelState global = lg.initialize();
  const data::Dataset train = world.fed.train_shard(0);
  const tensor::Tensor ssl_pool = world.fed.client_ssl_pool(0, train);
  fl::ClientContext ctx;
  ctx.client_id = 0;
  ctx.train = &train;
  ctx.ssl_pool = &ssl_pool;
  ctx.seed = 6;
  (void)lg.local_update(global, ctx);
  // Client 0 trained its encoder; client 3 never did. Their features on the
  // same inputs must differ.
  const tensor::Tensor x = train.x;
  EXPECT_FALSE(tensor::allclose(lg.client_features(0, x),
                                lg.client_features(3, x), 1e-5f));
}

TEST(PersistentState, FedPerKeepsPerClientHeads) {
  // A second local update for the same client must start from its stored
  // head: running two updates for client 0 and one for client 1 leaves their
  // personalized accuracies both valid but their stored heads distinct.
  const TinyWorld& world = tiny_world();
  const auto algorithm = make_algorithm("FedPer", world.config);
  const nn::ModelState global = algorithm->initialize();
  const data::Dataset train0 = world.fed.train_shard(0);
  const data::Dataset train1 = world.fed.train_shard(1);
  fl::ClientContext ctx0;
  ctx0.client_id = 0;
  ctx0.train = &train0;
  ctx0.seed = 7;
  fl::ClientContext ctx1;
  ctx1.client_id = 1;
  ctx1.train = &train1;
  ctx1.seed = 8;
  const fl::ClientUpdate u0 = algorithm->local_update(global, ctx0);
  const fl::ClientUpdate u1 = algorithm->local_update(global, ctx1);
  // Encoder states differ because local data differs.
  EXPECT_GT(u0.state.l2_distance(u1.state), 0.0f);
}

// --- draw-once init ---------------------------------------------------------

bool bitwise_equal(const nn::ModelState& a, const nn::ModelState& b) {
  return a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(float)) == 0;
}

// The init make_encoder_head must reproduce: drawn from a fresh generator.
nn::ModelState drawn_init(const fl::FlConfig& config, std::uint64_t seed) {
  rng::Generator gen(seed);
  const nn::MlpEncoder encoder(config.encoder, gen);
  const nn::LinearClassifier head(config.encoder.feature_dim,
                                  config.num_classes, gen);
  std::vector<ag::VarPtr> params = encoder.parameters();
  head.collect_parameters(params);
  return nn::ModelState::from_parameters(params);
}

nn::ModelState built_init(const fl::FlConfig& config, std::uint64_t seed) {
  return nn::ModelState::from_parameters(
      fl::make_encoder_head(config, seed).all_parameters());
}

// make_encoder_head draws each seeded init once per thread and copies it on
// a repeated build. The copy must be bitwise the draw, and a change to any
// input of the draw must draw afresh rather than reuse the stored state.
TEST(EncoderHead, CachedBuildMatchesDraw) {
  const fl::FlConfig base = tiny_world().config;
  const nn::ModelState expected = drawn_init(base, base.seed);
  EXPECT_TRUE(bitwise_equal(built_init(base, base.seed), expected));
  EXPECT_TRUE(bitwise_equal(built_init(base, base.seed), expected));

  std::vector<fl::FlConfig> variants(5, base);
  variants[0].seed = base.seed + 1;
  variants[1].encoder.hidden_dims = {24};
  variants[2].num_classes = base.num_classes + 2;
  variants[3].encoder.feature_dim = base.encoder.feature_dim + 4;
  variants[4].encoder.layer_norm = !base.encoder.layer_norm;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE(::testing::Message() << "variant " << v);
    const fl::FlConfig& config = variants[v];
    const nn::ModelState fresh = drawn_init(config, config.seed);
    EXPECT_FALSE(bitwise_equal(fresh, expected));
    EXPECT_TRUE(bitwise_equal(built_init(config, config.seed), fresh));
    EXPECT_TRUE(bitwise_equal(built_init(config, config.seed), fresh));
    EXPECT_TRUE(bitwise_equal(built_init(base, base.seed), expected));
  }
}

// FedRep, FedPer and LG-FedAvg fall back to the seeded init for a client
// with no stored head (encoder, for LG-FedAvg). Their local updates and
// personalization must not depend on whether that init was drawn (a fresh
// thread, whose store is empty) or copied (a thread that already built it).
TEST(EncoderHead, RandomInitFallbacksMatchDraw) {
  const TinyWorld& world = tiny_world();
  const data::Dataset train = world.fed.train_shard(0);
  const data::Dataset novel_train = world.fed.novel_train_shard(0);
  const data::Dataset novel_test = world.fed.novel_test_shard(0);
  fl::ClientContext ctx;
  ctx.client_id = 0;
  ctx.train = &train;
  ctx.seed = 9;
  fl::PersonalizationContext pctx;
  pctx.client_id = 4;  // never trained: nothing stored
  pctx.train = &novel_train;
  pctx.test = &novel_test;
  pctx.seed = 10;
  for (const std::string name : {"FedRep", "FedPer", "LG-FedAvg"}) {
    SCOPED_TRACE(name);
    const nn::ModelState global =
        make_algorithm(name, world.config)->initialize();
    nn::ModelState drawn_update;
    double drawn_accuracy = -1.0;
    std::thread([&] {
      drawn_update =
          make_algorithm(name, world.config)->local_update(global, ctx).state;
    }).join();
    std::thread([&] {
      drawn_accuracy =
          make_algorithm(name, world.config)->personalize(global, pctx);
    }).join();
    (void)fl::make_encoder_head(world.config, world.config.seed);
    const auto copied = make_algorithm(name, world.config);
    EXPECT_TRUE(
        bitwise_equal(copied->local_update(global, ctx).state, drawn_update));
    EXPECT_EQ(copied->personalize(global, pctx), drawn_accuracy);
  }
}

TEST(LocalOnly, TrainingStageIsForbidden) {
  const TinyWorld& world = tiny_world();
  const auto script = make_algorithm("Script-Fair", world.config);
  fl::ClientContext ctx;
  EXPECT_THROW(script->local_update(nn::ModelState(), ctx), CheckError);
}

TEST(Determinism, SameSeedSameResult) {
  const TinyWorld& world = tiny_world();
  auto run_once = [&] {
    const auto algorithm = make_algorithm("FedAvg-FT", world.config);
    return fl::run_federated(*algorithm, world.fed, false).train_accuracies;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, CalibreSameSeedSameResult) {
  const TinyWorld& world = tiny_world();
  auto run_once = [&] {
    const auto algorithm = make_algorithm("Calibre (SimCLR)", world.config);
    return fl::run_federated(*algorithm, world.fed, false).train_accuracies;
  };
  EXPECT_EQ(run_once(), run_once());
}

// FedAvg-FT personalizes from the global state alone, so re-running the
// personalization stage on a run's final state must reproduce the run's own
// accuracies exactly, novel clients included.
TEST(PersonalizeAll, ReproducesRunAccuraciesFromFinalState) {
  const TinyWorld& world = tiny_world();
  const auto algorithm = make_algorithm("FedAvg-FT", world.config);
  const fl::RunResult result =
      fl::run_federated(*algorithm, world.fed, /*personalize_novel=*/true);
  const fl::Personalization again = fl::personalize_all(
      *algorithm, world.fed, result.final_state, /*personalize_novel=*/true);
  ASSERT_EQ(result.train_accuracies.size(), 4u);
  ASSERT_EQ(result.novel_accuracies.size(), 1u);
  EXPECT_EQ(again.train_accuracies, result.train_accuracies);
  EXPECT_EQ(again.novel_accuracies, result.novel_accuracies);
}

TEST(PersonalizeAll, HonoursPersonalizeCap) {
  const TinyWorld& world = tiny_world();
  fl::FlConfig config = world.config;
  config.personalize_cap = 2;
  const auto algorithm = make_algorithm("FedAvg-FT", config);
  const fl::Personalization capped = fl::personalize_all(
      *algorithm, world.fed, algorithm->initialize(),
      /*personalize_novel=*/true);
  EXPECT_EQ(capped.train_accuracies.size(), 2u);
  EXPECT_EQ(capped.novel_accuracies.size(), 1u);  // 1 novel client <= cap
}

// --- client store ------------------------------------------------------------

TEST(ClientStoreTest, VisitBorrowsWithoutCopyAndMutateEditsInPlace) {
  ClientStore<std::vector<float>> store;
  EXPECT_FALSE(store.contains(3));
  EXPECT_FALSE(store.visit(3, [](const std::vector<float>&) { FAIL(); }));
  EXPECT_FALSE(store.mutate(3, [](std::vector<float>&) { FAIL(); }));

  store.put(3, std::vector<float>{1.0f, 2.0f});
  const float* stored_data = nullptr;
  ASSERT_TRUE(store.visit(3, [&](const std::vector<float>& v) {
    stored_data = v.data();
    EXPECT_EQ(v, (std::vector<float>{1.0f, 2.0f}));
  }));
  // Same buffer on a second visit: the store lends the value, not a copy.
  ASSERT_TRUE(store.visit(3, [&](const std::vector<float>& v) {
    EXPECT_EQ(v.data(), stored_data);
  }));

  ASSERT_TRUE(store.mutate(3, [](std::vector<float>& v) { v[0] = 9.0f; }));
  const auto copy = store.get(3);
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ((*copy)[0], 9.0f);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ClientStoreTest, ShardedStoreSurvivesConcurrentClients) {
  // Simulates the handler pattern at fan-out: many clients, distinct ids,
  // read-modify-write their own state concurrently. Ids are spread across
  // every shard (id & 15), so this also catches cross-shard aliasing.
  ClientStore<int> store;
  constexpr int kClients = 64;
  constexpr int kRounds = 50;
  std::vector<std::thread> workers;
  workers.reserve(8);
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&store, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (int id = w; id < kClients; id += 8) {
          if (!store.mutate(id, [](int& value) { ++value; })) {
            store.put(id, 1);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kClients));
  for (int id = 0; id < kClients; ++id) {
    int value = 0;
    ASSERT_TRUE(store.visit(id, [&](const int& v) { value = v; }));
    EXPECT_EQ(value, kRounds) << "client " << id;
  }
}

}  // namespace
}  // namespace calibre::algos
