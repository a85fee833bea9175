#include "fl/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <optional>
#include <unordered_map>

#include "common/check.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "fl/shard_fold.h"
#include "fl/update_codec.h"

namespace calibre::fl {
namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point from,
                       SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::size_t resolve_threads(const FlConfig& config) {
  return config.threads > 0 ? static_cast<std::size_t>(config.threads)
                            : common::ThreadPool::default_parallelism();
}

// Wires the config's fault model into the router: heterogeneous device
// classes when configured (client c -> class c % num_classes), else the
// uniform fault knobs. The fault stream seed is derived once, so sync and
// async runs over the same config see the same faults.
void configure_faults(const FlConfig& config, comm::Router& router) {
  const std::uint64_t fault_seed = derive_seed(config.seed, 0xFA01, 0);
  if (!config.device_classes.empty()) {
    std::vector<comm::FaultConfig> profiles;
    profiles.reserve(config.device_classes.size());
    for (const DeviceClass& device : config.device_classes) {
      comm::FaultConfig profile;
      profile.failure_rate = device.fault_rate;
      profile.latency_ms = device.fault_latency_ms;
      profile.seed = fault_seed;
      profile.duty_cycle = device.duty_cycle;
      profile.period_rounds = device.period_rounds;
      profiles.push_back(profile);
    }
    router.set_fault_profiles(
        std::move(profiles),
        [num_classes = config.device_classes.size()](int endpoint) {
          return static_cast<std::size_t>(endpoint) % num_classes;
        });
    return;
  }
  if (config.fault_rate > 0.0f || config.fault_latency_ms > 0) {
    comm::FaultConfig fault;
    fault.failure_rate = config.fault_rate;
    fault.latency_ms = config.fault_latency_ms;
    fault.seed = fault_seed;
    router.set_fault_injection(fault);
  }
}

// --- The round engine --------------------------------------------------------
//
// One dispatch-window/commit engine runs both modes: sync FedAvg is FedBuff
// (Nguyen et al., AISTATS 2022) with a window equal to the cohort, zero
// staleness and a barrier. Every dispatch is a slot keyed by a sequence
// number, and replies fold in DISPATCH order, never arrival order: arrival
// order is thread-schedule noise, and float summation is order-sensitive.
// A reply that lands ahead of the fold front is held SERIALIZED (a
// refcounted payload handle, no decode); the front decodes+folds it (or
// skips a failed or timed-out seq) the moment every earlier seq resolved.
// Each fold goes to the window's ShardedFolder under its dense rank (its
// index within the window); a commit finishes the folder, reads its
// per-rank stats back in rank order and pushes one RoundStats entry.
//
// FlConfig::async_mode decides exactly three things:
//   * what is dispatched: sync draws the whole cohort (plus its dropout
//     coins) when a window opens; async keeps clients_per_round slots in
//     flight, rejection-sampling one idle client each time a slot resolves;
//   * when to commit: sync once every seq in the window resolved, or once
//     the deadline fired and the quorum replied; async every
//     async_buffer_size folds;
//   * how to wait: pop_until while a sync deadline is armed, pop otherwise.
//
// Determinism: dispatches, folds and commits happen at window open or at
// front-advance time, so the sampler's draws, every base version and every
// fold are pure functions of the seed: a run is bit-identical across
// thread counts. A client holds at most one slot (a device trains one model
// at a time), so a reply's sender and round tag identify its seq. A reply
// whose sender has no slot, or whose tag is not its slot's version (a
// straggler cut at an earlier sync deadline), is discarded as late_dropped
// and never folded into the wrong version.
class RoundEngine {
 public:
  RoundEngine(Algorithm& algorithm, const FedDataset& fed,
              comm::Router& router, nn::ModelState& state, int fold_shards,
              common::ThreadPool* fold_pool, RunResult& result)
      : algorithm_(algorithm),
        fed_(fed),
        config_(algorithm.config()),
        router_(router),
        state_(state),
        fold_shards_(fold_shards),
        fold_pool_(fold_pool),
        result_(result),
        sampler_(derive_seed(config_.seed, 0xC1, 0xE57)) {}

  // Trains until config.rounds commits have landed, then drains every
  // request still in flight.
  void run() {
    if (config_.rounds == 0) return;  // personalization-only mode
    open_window();
    if (config_.async_mode) {
      for (int i = 0; i < config_.clients_per_round; ++i) {
        dispatch(sample_idle_client());
      }
    }
    comm::Mailbox& mailbox = router_.server_mailbox();
    while (version_ < config_.rounds) {
      // Every dispatch is guaranteed exactly one reply (success or
      // kTrainError), so a blocking pop cannot hang; the deadline merely lets
      // a sync window cut its stragglers loose once the quorum is in.
      std::optional<comm::Message> reply =
          deadline_armed_ ? mailbox.pop_until(deadline_) : mailbox.pop();
      if (!reply.has_value() && deadline_armed_ && !mailbox.closed()) {
        deadline_armed_ = false;
        deadline_fired_ = true;
      } else {
        CALIBRE_CHECK_MSG(reply.has_value(), "server mailbox closed early");
        on_reply(std::move(*reply));
      }
      if (!config_.async_mode &&
          (slots_.empty() || (deadline_fired_ && received_ >= quorum_))) {
        // Sync barrier release: seqs still outstanding are deadline
        // stragglers. They resolve as timed out, which releases every reply
        // held behind them into the fold; their own replies surface later
        // as late_dropped.
        for (Slot& slot : slots_) {
          if (slot.status == SlotState::kOutstanding) {
            slot.status = SlotState::kTimedOut;
            ++stats_.timeouts;
          }
        }
        advance_front();
        CALIBRE_CHECK_MSG(slots_.empty(), "reorder buffer failed to drain");
        commit();
      }
    }
    drain();
  }

 private:
  enum class SlotState { kOutstanding, kHeld, kFailed, kTimedOut };
  struct Slot {
    int client = -1;
    int version = 0;  // base version; also the request's round tag
    int retries_used = 0;
    SlotState status = SlotState::kOutstanding;
    comm::Payload reply;  // set when kHeld
  };
  // Snapshot registry entry: one serialized broadcast per version, shared
  // by every request (retries included) against it and kept alive while
  // any slot trained against it — delta16/topk16 replies decode against
  // the base of *their* version as the clients decoded it, which differs
  // from the state under a lossy broadcast codec. The decoded base is
  // shared_ptr-held because shard workers may still be decoding against it
  // after the version's last slot resolved and its entry died.
  struct Snapshot {
    comm::Payload payload;
    std::shared_ptr<const nn::ModelState> base;  // null under f32
    int refs = 0;
  };

  void open_window() {
    stats_ = RoundStats{};
    stats_.round = version_;
    folds_ = 0;
    received_ = 0;
    staleness_total_ = 0.0;
    staleness_max_ = 0;
    consecutive_failures_ = 0;  // a commit is progress
    traffic_at_open_ = router_.stats();
    // Zero-copy broadcast: serialize the global state ONCE per version and
    // share the immutable snapshot across every request against it.
    const SteadyClock::time_point start = SteadyClock::now();
    Snapshot& snap = snapshots_[version_];
    snap.payload = comm::Payload(
        state_.to_bytes(resolve_broadcast_codec(config_.wire_codec)));
    if (config_.wire_codec != comm::Codec::kF32) {
      snap.base = std::make_shared<const nn::ModelState>(
          nn::ModelState::from_bytes(snap.payload.bytes()));
    }
    result_.phases.dispatch_seconds +=
        seconds_between(start, SteadyClock::now());
    if (!config_.async_mode) dispatch_cohort();
    // Built after the cohort's dispatch so clients start training while the
    // server allocates the window's accumulators.
    folder_ = std::make_unique<ShardedFolder>(
        algorithm_, state_, /*round=*/version_, fold_shards_, fold_pool_,
        static_cast<std::size_t>(config_.async_mode
                                     ? config_.async_buffer_size
                                     : config_.clients_per_round));
  }

  void dispatch_cohort() {
    std::vector<int> cohort = sampler_.sample_without_replacement(
        fed_.num_train_clients(), config_.clients_per_round);
    // Dropout simulation: sampled clients may fail to respond. Keep at least
    // one participant so the round stays well-defined. Dropout coins come
    // from their own per-round stream, NOT from the sampler: drawing them
    // from the sampling stream would make --dropout silently change which
    // clients are sampled in every later round.
    if (config_.client_dropout_rate > 0.0f) {
      rng::Generator dropout_gen(derive_seed(
          config_.seed, 0xD80, static_cast<std::uint64_t>(version_)));
      std::vector<int> alive;
      for (const int client : cohort) {
        if (dropout_gen.uniform() < config_.client_dropout_rate) {
          ++stats_.dropped;
        } else {
          alive.push_back(client);
        }
      }
      if (alive.empty()) {
        alive.push_back(cohort.front());
        --stats_.dropped;
      }
      cohort = std::move(alive);
    }
    for (const int client : cohort) dispatch(client);
    // validate() already rejected min_participants outside
    // [1, clients_per_round]; the clamp only covers dropout legitimately
    // shrinking the cohort below the configured quorum.
    quorum_ =
        std::min(config_.min_participants, static_cast<int>(cohort.size()));
    deadline_armed_ = config_.round_deadline_ms > 0;
    deadline_fired_ = false;
    deadline_ = SteadyClock::now() +
                std::chrono::milliseconds(config_.round_deadline_ms);
  }

  int sample_idle_client() {
    // Rejection-sample a client with no slot. Terminates: slots <
    // population whenever this is called (clients_per_round <=
    // num_train_clients, and a slot was just resolved for replacements).
    int client;
    do {
      client = static_cast<int>(sampler_.uniform_index(
          static_cast<std::uint64_t>(fed_.num_train_clients())));
    } while (seq_of_client_.count(client) != 0);
    return client;
  }

  void dispatch(int client) {
    seq_of_client_[client] = front_ + static_cast<int>(slots_.size());
    Slot slot;
    slot.client = client;
    slot.version = version_;
    slots_.push_back(std::move(slot));
    ++snapshots_.at(version_).refs;
    send(slots_.back());
  }

  void send(const Slot& slot) {
    const SteadyClock::time_point start = SteadyClock::now();
    ++in_flight_;
    comm::Message request;
    request.type = comm::MessageType::kTrainRequest;
    request.sender = comm::kServerEndpoint;
    request.receiver = slot.client;
    // The round tag carries the base version: clients train against it, and
    // the fault injector's availability schedule keys on it (a device
    // class's period counts versions, which are rounds in sync mode).
    request.round = slot.version;
    request.payload = snapshots_.at(slot.version).payload;
    router_.send(std::move(request));
    result_.phases.dispatch_seconds +=
        seconds_between(start, SteadyClock::now());
  }

  void on_reply(comm::Message reply) {
    --in_flight_;
    const auto it = seq_of_client_.find(reply.sender);
    if (it == seq_of_client_.end() ||
        slot_at(it->second).version != reply.round) {
      ++stats_.late_dropped;
      log::debug() << algorithm_.name() << " window " << version_
                   << " discarded late reply from client " << reply.sender
                   << " (round " << reply.round << ")";
      return;
    }
    Slot& slot = slot_at(it->second);
    CALIBRE_CHECK(slot.status == SlotState::kOutstanding);
    if (reply.type == comm::MessageType::kTrainError) {
      // Failures and retries are credited to the window in which the seq
      // RESOLVES (advance_front), not the one where the error reply happened
      // to arrive: resolution order is deterministic, arrival order is not.
      // Hence the scratch stats here.
      RoundStats arrival_scratch;
      if (account_error_reply(/*client_pending=*/true, slot.retries_used,
                              config_.max_client_retries, arrival_scratch)) {
        // A retry keeps its seq (its place in fold order) and its snapshot:
        // the device re-runs the same request.
        send(slot);
        return;
      }
      log::debug() << algorithm_.name() << " seq " << it->second << " client "
                   << reply.sender
                   << " failed: " << comm::Router::error_text(reply);
      slot.status = SlotState::kFailed;
    } else {
      CALIBRE_CHECK(reply.type == comm::MessageType::kTrainResponse);
      slot.status = SlotState::kHeld;
      slot.reply = std::move(reply.payload);
      ++received_;
    }
    advance_front();
  }

  // Resolves every resolvable seq at the front, in seq order: held replies
  // fold, failed and timed-out seqs are skipped. In async mode each
  // resolution may commit and then back-fills its slot, which is what pins
  // the sampler draws and base versions regardless of reply arrival order.
  // Stops at the first seq still awaiting its reply, or once the final commit
  // lands.
  void advance_front() {
    while (version_ < config_.rounds && !slots_.empty() &&
           slots_.front().status != SlotState::kOutstanding) {
      Slot slot = std::move(slots_.front());
      slots_.pop_front();
      ++front_;
      seq_of_client_.erase(slot.client);
      stats_.retries += slot.retries_used;
      stats_.failures +=
          slot.retries_used + (slot.status == SlotState::kFailed ? 1 : 0);
      if (slot.status == SlotState::kHeld) {
        fold(slot);
      } else {
        // Legit high-fault configs recover within tens of dispatches; only a
        // configuration that can never fold (e.g. every async device class
        // offline at the current version, which no commit will ever advance)
        // hits this bound.
        ++consecutive_failures_;
        CALIBRE_CHECK_MSG(
            consecutive_failures_ <= 1000 + 50 * config_.clients_per_round,
            "async made no progress after "
                << consecutive_failures_
                << " consecutive permanent failures; with duty-cycled device "
                   "classes the availability schedule only advances on "
                   "commits, so a population that is fully offline at the "
                   "current version can never recover");
      }
      release(slot.version);
      if (config_.async_mode) {
        if (folds_ == config_.async_buffer_size) commit();
        if (version_ < config_.rounds) dispatch(sample_idle_client());
      }
    }
  }

  void fold(Slot& slot) {
    const int staleness = version_ - slot.version;
    // Decode + fold run on the folder (shard workers under --agg-shards,
    // inline otherwise); the staleness discount multiplies the decoded weight
    // there, and staleness_weight(0, alpha) is exactly 1.0f, so sync folds
    // are undiscounted. Update-content stats (norm, divergence, bytes) are
    // read back from the folder at commit; staleness is server-side state,
    // tallied here.
    folder_->submit(folds_, std::move(slot.reply),
                    snapshots_.at(slot.version).base,
                    staleness_weight(staleness, config_.staleness_alpha));
    staleness_total_ += staleness;
    staleness_max_ = std::max(staleness_max_, staleness);
    ++folds_;
    consecutive_failures_ = 0;
  }

  void release(int version) {
    const auto it = snapshots_.find(version);
    CALIBRE_CHECK(it != snapshots_.end() && it->second.refs > 0);
    // The current version stays cached for future dispatches even at zero
    // refs; a superseded version dies with its last slot (or at the commit
    // that superseded it, if none was left).
    if (--it->second.refs == 0 && version != version_) snapshots_.erase(it);
  }

  void commit() {
    const SteadyClock::time_point commit_start = SteadyClock::now();
    // collect() waits out the shard workers and merges the partials in
    // ascending shard order; only the merged root is ever finished. A window
    // in which every client failed keeps the global state as-is rather than
    // aggregating nothing.
    std::unique_ptr<StreamingAggregator> merged = folder_->collect();
    CALIBRE_CHECK_EQ(merged->folded(), folds_, "shard merge lost folds");
    if (folds_ > 0) {
      state_ = merged->finish();
    } else {
      log::warn() << algorithm_.name() << " round " << version_
                  << ": no updates arrived; keeping previous global state";
    }
    result_.phases.commit_seconds +=
        seconds_between(commit_start, SteadyClock::now());
    result_.phases.decode_seconds += folder_->decode_seconds();
    result_.phases.fold_seconds += folder_->fold_seconds();
    // Update-content stats read back from the folder's rank arrays, summed in
    // ascending rank order — the exact order the flat fold accumulated them
    // in, so the history is bit-identical across shard counts.
    double divergence_total = 0.0;
    int divergence_count = 0;
    double norm_total = 0.0;
    for (std::size_t r = 0; r < static_cast<std::size_t>(folds_); ++r) {
      if (folder_->has_divergence()[r] != 0) {
        divergence_total += folder_->divergences()[r];
        ++divergence_count;
      }
      norm_total += folder_->norms()[r];
      stats_.update_bytes_wire += folder_->wire_bytes()[r];
      stats_.update_bytes_f32 += folder_->f32_bytes()[r];
      const std::uint8_t tag = folder_->codec_tags()[r];
      if (tag < stats_.codec_counts.size()) ++stats_.codec_counts[tag];
    }
    stats_.participants = folds_;
    if (divergence_count > 0) {
      stats_.mean_divergence =
          static_cast<float>(divergence_total / divergence_count);
    }
    if (folds_ > 0) {
      stats_.mean_update_norm =
          static_cast<float>(norm_total / static_cast<double>(folds_));
      stats_.staleness_mean =
          static_cast<float>(staleness_total_ / static_cast<double>(folds_));
    }
    stats_.staleness_max = staleness_max_;
    ++version_;
    if (config_.async_mode) stats_.committed_version = version_;
    const auto superseded = snapshots_.find(version_ - 1);
    if (superseded != snapshots_.end() && superseded->second.refs == 0) {
      snapshots_.erase(superseded);
    }
    // Window traffic from the router's counters: retry re-sends and late
    // replies that surfaced in this window are all in the diff.
    const comm::TrafficStats traffic = router_.stats() - traffic_at_open_;
    stats_.bytes_broadcast = traffic.broadcast_bytes;
    stats_.bytes_collected = traffic.collected_bytes;
    stats_.serializations = traffic.broadcast_serializations;
    result_.history.push_back(stats_);
    log::debug() << algorithm_.name() << " commit " << version_ << "/"
                 << config_.rounds << " folded " << folds_ << " updates ("
                 << stats_.failures << " failures, " << stats_.timeouts
                 << " timeouts, " << stats_.late_dropped
                 << " late-dropped, staleness mean " << stats_.staleness_mean
                 << ")";
    if (version_ < config_.rounds) open_window();
  }

  // Requests still in flight after the final commit get their guaranteed
  // reply before the training stage ends, so no straggler's local_update
  // overlaps personalization. Seqs left unresolved — outstanding, or held or
  // failed behind an async straggler; a sync commit resolves its whole window
  // — are discarded, never folded into a future version, and counted as
  // late_dropped on the final entry. The count is the unresolved slot window,
  // which is deterministic; whether an individual straggler's reply arrived
  // before or after the final commit is not.
  void drain() {
    const int discarded = static_cast<int>(slots_.size());
    while (in_flight_ > 0) {
      const bool replied = router_.server_mailbox().pop().has_value();
      CALIBRE_CHECK_MSG(replied, "server mailbox closed early");
      --in_flight_;
    }
    if (!result_.history.empty()) {
      result_.history.back().late_dropped += discarded;
    }
  }

  Slot& slot_at(int seq) {
    return slots_[static_cast<std::size_t>(seq - front_)];
  }

  Algorithm& algorithm_;
  const FedDataset& fed_;
  const FlConfig& config_;
  comm::Router& router_;
  nn::ModelState& state_;
  const int fold_shards_;
  common::ThreadPool* const fold_pool_;
  RunResult& result_;
  rng::Generator sampler_;

  std::unordered_map<int, Snapshot> snapshots_;  // version -> broadcast
  std::deque<Slot> slots_;  // unresolved seqs front_, front_ + 1, ...
  // client -> unresolved seq. A client is released at front RESOLUTION, not
  // at reply arrival: freeing it on arrival would make the async rejection
  // sampler's candidate set (and every later draw) schedule-dependent.
  std::unordered_map<int, int> seq_of_client_;
  int front_ = 0;      // seq of slots_.front()
  int in_flight_ = 0;  // requests (retries included) without a reply yet
  int version_ = 0;    // commits so far
  int consecutive_failures_ = 0;

  // The open commit window.
  std::unique_ptr<ShardedFolder> folder_;
  RoundStats stats_;
  comm::TrafficStats traffic_at_open_;
  int folds_ = 0;
  int received_ = 0;  // replies accepted for folding
  double staleness_total_ = 0.0;
  int staleness_max_ = 0;
  // Sync deadline + minimum-participation quorum.
  int quorum_ = 0;
  bool deadline_armed_ = false;
  bool deadline_fired_ = false;
  SteadyClock::time_point deadline_;
};

}  // namespace

bool account_error_reply(bool client_pending, int& retries_used,
                         int max_client_retries, RoundStats& stats) {
  // Guard BEFORE counting: an error reply for a client that already
  // resolved (delivered, permanently failed, or cut at the deadline) is
  // stale noise, not a new failure. The pre-fix code incremented
  // stats.failures unconditionally, overcounting exactly these replies.
  if (!client_pending) return false;
  ++stats.failures;
  if (retries_used < max_client_retries) {
    ++retries_used;
    ++stats.retries;
    return true;
  }
  return false;
}

float staleness_weight(int staleness, float alpha) {
  CALIBRE_CHECK_MSG(staleness >= 0, "staleness must be >= 0");
  if (alpha == 0.0f || staleness == 0) return 1.0f;
  return static_cast<float>(
      1.0 / std::pow(1.0 + static_cast<double>(staleness),
                     static_cast<double>(alpha)));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (a + 1) +
                    0xbf58476d1ce4e5b9ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Personalization personalize_all(Algorithm& algorithm, const FedDataset& fed,
                                const nn::ModelState& state,
                                bool personalize_novel) {
  const FlConfig& config = algorithm.config();
  common::ThreadPool pool(resolve_threads(config));
  // `novel` switches both the shard accessors and the cap's sample stream;
  // ids are indices within the respective set. With personalize_cap set, a
  // seeded without-replacement sample of that size is evaluated instead of
  // the full sweep (the cap stream is independent of the round sampler, so
  // capping never perturbs training).
  auto personalize_set = [&](int count, bool novel, std::uint64_t salt,
                             int id_offset) {
    std::vector<int> ids;
    if (config.personalize_cap > 0 && count > config.personalize_cap) {
      rng::Generator cap_gen(derive_seed(config.seed, 0x9CA9, novel ? 1 : 0));
      ids = cap_gen.sample_without_replacement(count, config.personalize_cap);
      std::sort(ids.begin(), ids.end());
    } else {
      ids.resize(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) ids[static_cast<std::size_t>(i)] = i;
    }
    std::vector<std::future<double>> futures;
    futures.reserve(ids.size());
    for (const int id : ids) {
      futures.push_back(pool.submit([&, id] {
        const data::Dataset train =
            novel ? fed.novel_train_shard(id) : fed.train_shard(id);
        const data::Dataset test =
            novel ? fed.novel_test_shard(id) : fed.test_shard(id);
        PersonalizationContext ctx;
        ctx.client_id = id_offset + id;
        ctx.train = &train;
        ctx.test = &test;
        ctx.seed =
            derive_seed(config.seed, salt, static_cast<std::uint64_t>(id));
        return algorithm.personalize(state, ctx);
      }));
    }
    std::vector<double> accuracies;
    accuracies.reserve(futures.size());
    for (auto& future : futures) accuracies.push_back(future.get());
    return accuracies;
  };
  Personalization result;
  result.train_accuracies = personalize_set(fed.num_train_clients(),
                                            /*novel=*/false, 0xA11,
                                            /*id_offset=*/0);
  if (personalize_novel && fed.num_novel_clients() > 0) {
    result.novel_accuracies =
        personalize_set(fed.num_novel_clients(), /*novel=*/true, 0xB22,
                        /*id_offset=*/fed.num_train_clients());
  }
  return result;
}

RunResult run_federated(Algorithm& algorithm, const FedDataset& fed,
                        bool personalize_novel) {
  const FlConfig& config = algorithm.config();
  validate(config);
  CALIBRE_CHECK(fed.num_train_clients() > 0);
  CALIBRE_CHECK_MSG(config.clients_per_round <= fed.num_train_clients(),
                    "cannot sample " << config.clients_per_round << " of "
                                     << fed.num_train_clients() << " clients");
  const SteadyClock::time_point start_time = SteadyClock::now();

  // Client-side update encoder: error-feedback residuals (ClientStore-backed,
  // so they survive re-selection gaps) plus the per-update codec chooser.
  // Declared before the router so in-flight handlers can never outlive it.
  UpdateEncoder update_encoder(config);

  comm::Router router(resolve_threads(config));
  configure_faults(config, router);

  // Virtual clients: ONE generic device handler serves the whole population,
  // parameterized by the client id in Message::receiver — registration cost
  // O(1) instead of O(clients), and no per-client closures. The handler runs
  // on the device pool: materialise the client's shard and SSL pool,
  // deserialize global -> local update -> reply. The shard lives on the
  // handler frame, so per-shard memory is bounded by the pool's thread count,
  // not the population.
  router.register_default_handler([&](const comm::Message& request) {
    CALIBRE_CHECK(request.type == comm::MessageType::kTrainRequest);
    const int c = request.receiver;
    CALIBRE_CHECK(c >= 0 && c < fed.num_train_clients());
    const nn::ModelState global =
        nn::ModelState::from_bytes(request.payload.bytes());
    const data::Dataset train = fed.train_shard(c);
    const tensor::Tensor ssl_pool = fed.client_ssl_pool(c, train);
    ClientContext ctx;
    ctx.client_id = c;
    ctx.round = request.round;
    ctx.train = &train;
    ctx.ssl_pool = &ssl_pool;
    ctx.oracle = fed.pool_is_latent ? &fed.oracle : nullptr;
    ctx.seed = derive_seed(config.seed,
                           static_cast<std::uint64_t>(request.round),
                           static_cast<std::uint64_t>(c));
    const ClientUpdate update = algorithm.local_update(global, ctx);

    comm::Message response;
    response.type = comm::MessageType::kTrainResponse;
    response.sender = c;
    response.receiver = comm::kServerEndpoint;
    response.round = request.round;
    // delta16/topk16 replies encode against the global exactly as this
    // client decoded it — the same reference the server derives from its own
    // broadcast snapshot, so both sides agree bit-for-bit.
    response.payload = comm::Payload(update_encoder.encode(update, &global, c));
    router.send(std::move(response));
  });

  // --- Training stage -------------------------------------------------------
  const SteadyClock::time_point train_start = SteadyClock::now();
  nn::ModelState state = algorithm.initialize();
  RunResult result;
  result.algorithm = algorithm.name();
  // Every fold runs through ShardedFolder: --agg-shards > 1 decodes and
  // folds on parallel shard workers, 1 (with a null pool) is the inline flat
  // fold, and the fixed-point accumulators make every shard count produce
  // bit-identical states.
  std::unique_ptr<common::ThreadPool> fold_pool;
  if (config.agg_shards > 1) {
    fold_pool = std::make_unique<common::ThreadPool>(
        static_cast<std::size_t>(config.agg_shards));
  }
  RoundEngine(algorithm, fed, router, state, config.agg_shards,
              fold_pool.get(), result)
      .run();
  result.train_seconds = seconds_between(train_start, SteadyClock::now());

  // --- Personalization stage -------------------------------------------------
  Personalization personalization =
      personalize_all(algorithm, fed, state, personalize_novel);
  result.train_accuracies = std::move(personalization.train_accuracies);
  result.novel_accuracies = std::move(personalization.novel_accuracies);

  result.traffic = router.stats();
  result.final_state = std::move(state);
  result.wall_seconds = seconds_between(start_time, SteadyClock::now());
  return result;
}

}  // namespace calibre::fl
