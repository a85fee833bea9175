// Federated view of a dataset: per-client shards cut on demand.
//
// Built from a SyntheticDataset plus a Partition over (participating +
// novel) clients. Novel clients never appear during federated training; they
// only download the final global model and personalize (paper §V-D). For
// STL-10-style datasets the unlabeled pool is split evenly across
// participating clients and concatenated with their labeled inputs to form
// the per-client SSL pool.
//
// A FedDataset keeps the shared base splits and the partition's index lists,
// nothing per client. Each accessor materialises the requested shard (a
// subset() of the base split) and returns it by value, so memory stays
// O(dataset + indices) no matter how many clients the partition names —
// which is what lets a 100k-client federation fit — and per-shard memory is
// bounded by the number of callers holding one at a time.
#pragma once

#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"

namespace calibre::fl {

struct FedDataset {
  data::Dataset base_train;                 // shared train split
  data::Dataset base_test;                  // shared test split
  data::Dataset base_unlabeled;             // shared SSL-only pool
  // Per client (participating first, then novel), indices into base_train /
  // base_test.
  std::vector<std::vector<int>> train_indices;
  std::vector<std::vector<int>> test_indices;
  int train_clients = 0;                    // participating clients
  // Shuffled base_unlabeled row order; participating client c owns rows
  // [c * unlabeled_share, (c + 1) * unlabeled_share) of it.
  std::vector<int> unlabeled_order;
  std::size_t unlabeled_share = 0;
  // True when SSL pool rows are class latents to be rendered through
  // `oracle`; false when they are raw inputs for pixel augmentation.
  bool pool_is_latent = false;
  data::ViewOracle oracle;
  int num_classes = 0;
  std::int64_t input_dim = 0;

  int num_train_clients() const { return train_clients; }
  int num_novel_clients() const {
    return static_cast<int>(train_indices.size()) - train_clients;
  }

  data::Dataset train_shard(int client) const;
  data::Dataset test_shard(int client) const;
  data::Dataset novel_train_shard(int novel) const;
  data::Dataset novel_test_shard(int novel) const;
  // The client's SSL pool: the labeled inputs (or latents) of `train`, which
  // must be train_shard(client), plus the client's unlabeled slice. Taking
  // the shard lets a caller that already holds it skip a second subset().
  tensor::Tensor client_ssl_pool(int client, const data::Dataset& train) const;
};

// Keeps the shared splits + the partition's index lists (the first
// num_train_clients partition clients participate, the rest are novel) and
// draws the unlabeled order with one gen.shuffle.
FedDataset build_fed_dataset(const data::SyntheticDataset& synth,
                             const data::Partition& partition,
                             int num_train_clients, rng::Generator& gen);

// Forwards to build_fed_dataset. Kept only because perfbench/workloads.cc
// (the end-to-end benchmark's own sources, listed in BENCHMARK.json) calls
// it; it goes in the next change that may touch perfbench/.
FedDataset build_virtual_fed_dataset(const data::SyntheticDataset& synth,
                                     const data::Partition& partition,
                                     int num_train_clients,
                                     rng::Generator& gen);

}  // namespace calibre::fl
