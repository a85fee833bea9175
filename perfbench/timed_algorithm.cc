#include "timed_algorithm.h"

#include "common/check.h"

namespace calibre::perfbench {

TimedAlgorithm::TimedAlgorithm(std::unique_ptr<fl::Algorithm> inner,
                               Tracer* tracer, Clock::time_point epoch)
    : fl::Algorithm(inner->config()),
      inner_(std::move(inner)),
      tracer_(tracer),
      epoch_(epoch) {}

void TimedAlgorithm::start_run() { run_start_ = now(); }

fl::ClientUpdate TimedAlgorithm::local_update(const nn::ModelState& global,
                                              const fl::ClientContext& ctx) {
  if (tracer_ == nullptr) return inner_->local_update(global, ctx);
  const int round = commits_.load();
  const double start = now();
  fl::ClientUpdate update = inner_->local_update(global, ctx);
  const double end = now();
  tracer_->record({"algos.local_update", "round", round, ctx.client_id, start,
                   end, global.size()});
  {
    std::lock_guard<std::mutex> lock(capture_mu_);
    if (captures_.size() < kCaptureLimit) {
      captures_.push_back({ctx.client_id, global, update});
    }
  }
  return update;
}

std::unique_ptr<fl::StreamingAggregator> TimedAlgorithm::make_aggregator(
    const nn::ModelState& global, int round) {
  return std::make_unique<TimedAggregator>(
      inner_->make_aggregator(global, round), *this);
}

double TimedAlgorithm::personalize(const nn::ModelState& global,
                                   const fl::PersonalizationContext& ctx) {
  const double start = now();
  if (!personalize_started_.exchange(true)) personalize_start_ = start;
  if (tracer_ == nullptr) return inner_->personalize(global, ctx);
  const double accuracy = inner_->personalize(global, ctx);
  tracer_->record({"algos.personalize", "personalize", 0, ctx.client_id,
                   start, now(), 0});
  return accuracy;
}

void TimedAlgorithm::on_commit(double finish_start, double finish_end) {
  const int round = static_cast<int>(commit_times_.size());
  const double round_start =
      commit_times_.empty() ? run_start_ : commit_times_.back();
  commit_times_.push_back(finish_end);
  commits_.store(round + 1);
  if (tracer_ == nullptr) return;
  tracer_->record(
      {"flapi.finish", "round", round, -1, finish_start, finish_end, 0});
  tracer_->record({"round", "", round, -1, round_start, finish_end, 0});
}

void TimedAggregator::fold(fl::ClientUpdate update) {
  if (owner_.tracer_ == nullptr) {
    inner_->fold(std::move(update));
  } else {
    const int round = owner_.commits_.load();
    const std::uint64_t params = update.state.size();
    const double start = owner_.now();
    inner_->fold(std::move(update));
    owner_.tracer_->record(
        {"flapi.fold", "round", round, -1, start, owner_.now(), params});
  }
  ++folded_;
}

nn::ModelState TimedAggregator::finish() {
  const double start = owner_.now();
  nn::ModelState state = inner_->finish();
  owner_.on_commit(start, owner_.now());
  return state;
}

void TimedAggregator::merge(fl::StreamingAggregator&& other) {
  auto* timed = dynamic_cast<TimedAggregator*>(&other);
  CALIBRE_CHECK_MSG(timed != nullptr,
                    "a timed aggregator merges only timed partials");
  const double start = owner_.now();
  inner_->merge(std::move(*timed->inner_));
  if (owner_.tracer_ != nullptr) {
    owner_.tracer_->record({"flapi.merge", "round", owner_.commits_.load(), -1,
                            start, owner_.now(), 0});
  }
  folded_ += timed->folded_;
  timed->folded_ = 0;
}

}  // namespace calibre::perfbench
