#include "workloads.h"

#include "algos/registry.h"
#include "common/check.h"
#include "data/partition.h"

namespace calibre::perfbench {
namespace {

// Device threads for every workload, fixed so a result never depends on
// the host's core count: three of the tuning machine's four cores, so the
// server thread (fold, commit) and the fold shards keep a core of their
// own.
constexpr int kDeviceThreads = 3;
constexpr double kDirichletAlpha = 0.3;

WorkloadSpec base_spec(const std::string& name, const std::string& method,
                       std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  spec.method = method;
  spec.config.seed = seed;
  spec.config.threads = kDeviceThreads;
  spec.config.ssl_opt.learning_rate = 0.05f;
  return spec;
}

WorkloadSpec paper(std::uint64_t seed, bool smoke) {
  WorkloadSpec spec = base_spec("paper", "Calibre (SimCLR)", seed);
  spec.train_clients = smoke ? 12 : 100;
  spec.novel_clients = smoke ? 6 : 50;
  spec.samples_per_client = smoke ? 100 : 500;
  spec.test_samples_per_client = smoke ? 50 : 100;
  spec.config.rounds = smoke ? 4 : 30;
  spec.config.clients_per_round = smoke ? 4 : 10;
  spec.config.local_epochs = smoke ? 1 : 3;
  spec.personalize_novel = true;
  return spec;
}

WorkloadSpec cohort(std::uint64_t seed, bool smoke) {
  WorkloadSpec spec = base_spec("cohort", "FedAvg", seed);
  spec.train_clients = smoke ? 1000 : 10000;
  spec.samples_per_client = 20;
  spec.test_samples_per_client = 50;
  spec.virtual_clients = true;
  spec.config.rounds = smoke ? 3 : 30;
  spec.config.clients_per_round = smoke ? 16 : 64;
  spec.config.local_epochs = 3;
  spec.config.personalize_cap = smoke ? 8 : 256;
  return spec;
}

WorkloadSpec async_topk(std::uint64_t seed, bool smoke) {
  WorkloadSpec spec = base_spec("async_topk", "Calibre (SimCLR)", seed);
  spec.train_clients = smoke ? 40 : 200;
  spec.samples_per_client = smoke ? 30 : 200;
  spec.test_samples_per_client = smoke ? 20 : 50;
  spec.config.rounds = smoke ? 6 : 100;
  spec.config.clients_per_round = 16;  // requests in flight
  spec.config.local_epochs = 1;
  spec.config.async_mode = true;
  spec.config.async_buffer_size = 8;
  spec.config.wire_codec = comm::Codec::kTopK16;
  spec.config.agg_shards = 2;
  return spec;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int WorkloadSpec::expected_folds() const {
  return config.rounds * (config.async_mode ? config.async_buffer_size
                                            : config.clients_per_round);
}

int WorkloadSpec::expected_train_accuracies() const {
  const int cap = config.personalize_cap;
  return cap > 0 && train_clients > cap ? cap : train_clients;
}

std::vector<std::string> workload_names() {
  return {"paper", "cohort", "async_topk"};
}

WorkloadSpec workload_by_name(const std::string& name, std::uint64_t seed,
                              bool smoke) {
  WorkloadSpec spec;
  if (name == "paper") {
    spec = paper(seed, smoke);
  } else if (name == "cohort") {
    spec = cohort(seed, smoke);
  } else if (name == "async_topk") {
    spec = async_topk(seed, smoke);
  } else {
    CALIBRE_CHECK_MSG(false, "unknown workload: " << name);
  }
  spec.config.num_train_clients = spec.train_clients;
  return spec;
}

Setup build_setup(const WorkloadSpec& spec, Tracer* tracer,
                  Clock::time_point epoch) {
  Setup setup;
  const Clock::time_point t0 = Clock::now();
  setup.synth = data::make_synthetic(data::preset_by_name("cifar10"));
  const Clock::time_point t1 = Clock::now();

  data::PartitionConfig partition_config;
  partition_config.num_clients = spec.train_clients + spec.novel_clients;
  partition_config.samples_per_client = spec.samples_per_client;
  partition_config.test_samples_per_client = spec.test_samples_per_client;
  rng::Generator partition_gen(spec.config.seed ^ 0x9A87);
  const data::Partition partition = data::partition_dirichlet(
      setup.synth.train, setup.synth.test, partition_config, kDirichletAlpha,
      partition_gen);
  const Clock::time_point t2 = Clock::now();

  rng::Generator fed_gen(spec.config.seed ^ 0x517E);
  setup.fed = spec.virtual_clients
                  ? fl::build_virtual_fed_dataset(setup.synth, partition,
                                                  spec.train_clients, fed_gen)
                  : fl::build_fed_dataset(setup.synth, partition,
                                          spec.train_clients, fed_gen);
  const Clock::time_point t3 = Clock::now();

  fl::FlConfig config = spec.config;
  config.encoder.input_dim = setup.synth.train.input_dim();
  config.num_classes = setup.synth.train.num_classes;
  setup.algorithm = algos::make_algorithm(spec.method, config);
  const Clock::time_point t4 = Clock::now();

  setup.synth_s = seconds_between(t0, t1);
  setup.partition_s = seconds_between(t1, t2);
  setup.fed_dataset_s = seconds_between(t2, t3);
  setup.make_algorithm_s = seconds_between(t3, t4);
  if (tracer != nullptr) {
    const auto at = [&](Clock::time_point t) {
      return seconds_between(epoch, t);
    };
    tracer->record({"data.synth", "setup", 0, -1, at(t0), at(t1), 0});
    tracer->record({"data.partition", "setup", 0, -1, at(t1), at(t2), 0});
    tracer->record({"fl.fed_dataset", "setup", 0, -1, at(t2), at(t3), 0});
    tracer->record(
        {"algos.make_algorithm", "setup", 0, -1, at(t3), at(t4), 0});
  }
  return setup;
}

}  // namespace calibre::perfbench
