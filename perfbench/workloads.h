// The benchmark's workloads and the timed set-up that builds one.
//
// All three use the cifar10 preset, a Dirichlet(0.3) label split and 3
// device threads; each loads a different layer:
//  * paper      — Calibre (SimCLR) at the paper's Fig. 3 shape (eager,
//                 sync, f32). Client compute dominates.
//  * cohort     — FedAvg over 10k virtual clients, 64 per round: the
//                 serial exact fold and the virtual dataset dominate.
//  * async_topk — Calibre (SimCLR), buffered async, topk16 with error
//                 feedback, 2 fold shards: the paths the others skip
//                 (staleness weighting, sparse codec, shard merge).
// The seed feeds the partition, the FedDataset build and FlConfig::seed;
// the synthetic data itself comes from the preset's fixed seed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "flapi/algorithm.h"
#include "trace.h"

namespace calibre::perfbench {

struct WorkloadSpec {
  std::string name;
  std::string method;
  int train_clients = 0;
  int novel_clients = 0;
  int samples_per_client = 0;
  int test_samples_per_client = 0;
  bool virtual_clients = false;
  fl::FlConfig config;  // rounds, cohort, codec, async, threads, ...
  bool personalize_novel = false;

  // Updates folded by a complete run (sync: rounds x cohort; async:
  // commits x buffer).
  int expected_folds() const;
  // Accuracies run_federated returns for participating clients.
  int expected_train_accuracies() const;
};

// `smoke` shrinks a workload to a few seconds for the wrapper self-test
// while keeping every mechanism it exercises.
WorkloadSpec workload_by_name(const std::string& name, std::uint64_t seed,
                              bool smoke);
std::vector<std::string> workload_names();

// Set-up products plus the time each set-up call took.
struct Setup {
  data::SyntheticDataset synth;
  fl::FedDataset fed;
  std::unique_ptr<fl::Algorithm> algorithm;
  double synth_s = 0.0;
  double partition_s = 0.0;
  double fed_dataset_s = 0.0;
  double make_algorithm_s = 0.0;
};

// Runs the four set-up calls, timing each; with a tracer, records one
// span per call as a child of the caller's `setup` span.
Setup build_setup(const WorkloadSpec& spec, Tracer* tracer,
                  Clock::time_point epoch);

}  // namespace calibre::perfbench
