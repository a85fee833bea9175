// A forwarding fl::Algorithm / fl::StreamingAggregator pair that times the
// calls fl::run_federated makes into the algorithm layer.
//
// run_federated reaches an algorithm only through its virtual interface, so
// wrapping one changes no result: every call is forwarded unchanged and the
// wrapper's own state (a clock, counters, spans) never feeds back into the
// federation. The benchmark's self-test checks this — a bare, an untraced
// and a traced run of each workload give the same final-state hash and the
// same RoundStats history.
//
// Untraced, the wrapper only stamps the clock when a round commits
// (finish() returns) and when the first personalize() call starts: that is
// what the end-to-end metrics need. Traced, it also records a span around
// every local_update / fold / merge / finish / personalize call and keeps
// copies of the first few (update, base) pairs so the benchmark can replay
// the update codec on real updates after the run.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flapi/algorithm.h"
#include "trace.h"

namespace calibre::perfbench {

// One local update as the client produced it, with the global state it
// trained from (the reference delta/top-k codecs encode against).
struct CapturedUpdate {
  int client = 0;
  nn::ModelState base;
  fl::ClientUpdate update;
};

class TimedAlgorithm final : public fl::Algorithm {
 public:
  // `tracer` null = untraced. Traced runs also keep the first
  // kCaptureLimit updates for the codec replay.
  static constexpr std::size_t kCaptureLimit = 16;
  TimedAlgorithm(std::unique_ptr<fl::Algorithm> inner, Tracer* tracer,
                 Clock::time_point epoch);

  std::string name() const override { return inner_->name(); }
  nn::ModelState initialize() override { return inner_->initialize(); }
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  nn::ModelState aggregate(const nn::ModelState& global,
                           const std::vector<fl::ClientUpdate>& updates,
                           int round) override {
    return inner_->aggregate(global, updates, round);
  }
  std::unique_ptr<fl::StreamingAggregator> make_aggregator(
      const nn::ModelState& global, int round) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

  // Marks the run_federated call; round 0 starts here.
  void start_run();

  // Seconds since the epoch. Read only after run_federated returned.
  double run_start() const { return run_start_; }
  const std::vector<double>& commit_times() const { return commit_times_; }
  double personalize_start() const { return personalize_start_; }
  bool personalized() const { return personalize_started_.load(); }
  const std::vector<CapturedUpdate>& captures() const { return captures_; }

 private:
  friend class TimedAggregator;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  // Called by the aggregator on the server thread when finish() returns.
  void on_commit(double finish_start, double finish_end);

  std::unique_ptr<fl::Algorithm> inner_;
  Tracer* tracer_;
  Clock::time_point epoch_;

  double run_start_ = 0.0;
  // Written on the server thread only (finish() runs there).
  std::vector<double> commit_times_;
  // Read by device and shard threads to parent their spans.
  std::atomic<int> commits_{0};
  std::atomic<bool> personalize_started_{false};
  double personalize_start_ = 0.0;

  std::mutex capture_mu_;
  std::vector<CapturedUpdate> captures_;  // guarded by capture_mu_
};

// Forwards every call to the algorithm's own aggregator. folded() is a
// non-virtual counter on the base, so the wrapper keeps it in step itself
// (the runner checks it against the folds it submitted).
class TimedAggregator final : public fl::StreamingAggregator {
 public:
  TimedAggregator(std::unique_ptr<fl::StreamingAggregator> inner,
                  TimedAlgorithm& owner)
      : inner_(std::move(inner)), owner_(owner) {}

  void fold(fl::ClientUpdate update) override;
  nn::ModelState finish() override;
  void merge(fl::StreamingAggregator&& other) override;
  bool mergeable() const override { return inner_->mergeable(); }
  std::size_t buffered_updates() const override {
    return inner_->buffered_updates();
  }
  bool bounded_memory() const override { return inner_->bounded_memory(); }

 private:
  std::unique_ptr<fl::StreamingAggregator> inner_;
  TimedAlgorithm& owner_;
};

}  // namespace calibre::perfbench
