// perfbench_runner — one experiment of one benchmark workload.
//
// Builds the workload (timed set-up), runs fl::run_federated through the
// public API, checks the outputs and prints one JSON record on stdout.
// perfbench/run.py repeats experiments for the measured time, takes
// medians, and prints the benchmark's result line.
//
//   perfbench_runner --workload paper --seed 42 --mode untraced
//   perfbench_runner --workload cohort --mode traced --trace-out t.json
//   perfbench_runner --workload async_topk --mode bare --smoke
//
// Modes: `bare` runs the algorithm unwrapped (the self-test's reference),
// `untraced` wraps it to stamp round commits and the personalization start
// (the end-to-end metrics), `traced` also records spans around every call
// into the algorithm layer and replays the update codec on captured updates
// (the per-layer metrics).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "fl/runner.h"
#include "fl/update_codec.h"
#include "metrics/stats.h"
#include "timed_algorithm.h"
#include "trace.h"
#include "workloads.h"

namespace calibre::perfbench {
namespace {

// Parts-sum-to-whole tolerance for traced runs: the set-up children must
// sum to setup_s, and the round spans plus the drain span must tile
// train_s, each within kTileAbsS + kTileRel x the whole.
constexpr double kTileAbsS = 0.002;
constexpr double kTileRel = 0.01;
// Minimum measured time of the codec replay.
constexpr double kReplayMinS = 0.2;

class Fnv {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add(T value) {
    add_bytes(&value, sizeof(value));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// FNV-1a over the final state's float bits, byte order as bench_codec's
// frozen hashes.
std::uint64_t state_hash(const nn::ModelState& state) {
  Fnv fnv;
  for (const float v : state.values()) fnv.add(v);
  return fnv.value();
}

// Digest of every RoundStats field that is a pure function of the seed.
// Async byte and serialization columns are attributed by arrival time
// (DESIGN.md §8.3), so async runs leave them out.
std::uint64_t history_digest(const std::vector<fl::RoundStats>& history,
                             bool async_mode) {
  Fnv fnv;
  for (const fl::RoundStats& r : history) {
    fnv.add(r.round);
    fnv.add(r.participants);
    fnv.add(r.dropped);
    fnv.add(r.failures);
    fnv.add(r.retries);
    fnv.add(r.timeouts);
    fnv.add(r.late_dropped);
    fnv.add(r.mean_divergence);
    fnv.add(r.mean_update_norm);
    fnv.add(r.update_bytes_wire);
    fnv.add(r.update_bytes_f32);
    for (const std::uint32_t c : r.codec_counts) fnv.add(c);
    fnv.add(r.committed_version);
    fnv.add(r.staleness_mean);
    fnv.add(r.staleness_max);
    if (!async_mode) {
      fnv.add(r.bytes_broadcast);
      fnv.add(r.bytes_collected);
      fnv.add(r.serializations);
    }
  }
  return fnv.value();
}

// Nearest-rank position (1-based) of percentile `tenths` / 10 among n
// sorted samples, in integer arithmetic so p90 of 100 samples is rank 90.
std::size_t nearest_rank(std::size_t n, int tenths) {
  const std::size_t rank = (n * static_cast<std::size_t>(tenths) + 999) / 1000;
  return std::clamp<std::size_t>(rank, 1, n);
}

double percentile_tenths(std::vector<double> values, int tenths) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), tenths) - 1];
}

double median(const std::vector<double>& values) {
  return percentile_tenths(values, 500);
}

// The tail of a timing sample: the highest percentile with at least ten
// samples beyond it, i.e. the (n - 10)-th smallest value, at percentile
// 100 (n - 10) / n. Below twenty samples it falls back to the median.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.size() < 20) {
    tail.value = median(values);
    return tail;
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = values.size() - 10;
  tail.percentile =
      100.0 * static_cast<double>(rank) / static_cast<double>(values.size());
  tail.value = values[rank - 1];
  return tail;
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string quote(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return quoted + "\"";
}

// Minimal JSON object writer for the one-line record.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buffer[64];
    if (std::isfinite(value)) {
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    } else {
      std::snprintf(buffer, sizeof(buffer), "null");
    }
    return raw(key, buffer);
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "{" : ", ") << '"' << key << "\": " << json;
    first_ = false;
    return *this;
  }
  std::string close() const { return out_.str() + (first_ ? "{}" : "}"); }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string hex(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  std::string mode = "untraced";
  bool smoke = false;
  std::string trace_out;
};

// Mean encode and decode time (microseconds) of the run's own update
// codec, replayed on updates captured during the run. Each pass starts a
// fresh encoder, so error-feedback state evolves exactly as in one run.
std::pair<double, double> replay_codec(const fl::FlConfig& config,
                                       const std::vector<CapturedUpdate>& caps) {
  if (caps.empty()) return {0.0, 0.0};
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::size_t calls = 0;
  const Clock::time_point begin = Clock::now();
  for (int pass = 0;
       pass < 3 || std::chrono::duration<double>(Clock::now() - begin)
                           .count() < kReplayMinS;
       ++pass) {
    fl::UpdateEncoder encoder(config);
    for (const CapturedUpdate& c : caps) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<std::uint8_t> bytes =
          encoder.encode(c.update, &c.base, c.client);
      const Clock::time_point t1 = Clock::now();
      const fl::ClientUpdate decoded = fl::deserialize_update(bytes, &c.base);
      const Clock::time_point t2 = Clock::now();
      CALIBRE_CHECK_EQ(decoded.state.size(), c.update.state.size());
      encode_s += std::chrono::duration<double>(t1 - t0).count();
      decode_s += std::chrono::duration<double>(t2 - t1).count();
      ++calls;
    }
  }
  const double n = static_cast<double>(calls);
  return {encode_s / n * 1e6, decode_s / n * 1e6};
}

int run(const Options& options) {
  const WorkloadSpec spec =
      workload_by_name(options.workload, options.seed, options.smoke);
  const bool bare = options.mode == "bare";
  const bool traced = options.mode == "traced";
  CALIBRE_CHECK_MSG(bare || traced || options.mode == "untraced",
                    "unknown mode: " << options.mode);

  const Clock::time_point epoch = Clock::now();
  Tracer tracer(epoch);
  Tracer* span_sink = traced ? &tracer : nullptr;

  const Clock::time_point setup_begin = Clock::now();
  Setup setup = build_setup(spec, span_sink, epoch);
  const Clock::time_point setup_end = Clock::now();
  const double setup_s =
      std::chrono::duration<double>(setup_end - setup_begin).count();
  if (traced) {
    tracer.record({"setup", "", 0, -1, tracer.seconds_since_epoch(setup_begin),
                   tracer.seconds_since_epoch(setup_end), 0});
  }

  const fl::FlConfig config = setup.algorithm->config();
  std::unique_ptr<TimedAlgorithm> timed;
  fl::Algorithm* algorithm = setup.algorithm.get();
  if (!bare) {
    timed = std::make_unique<TimedAlgorithm>(std::move(setup.algorithm),
                                             span_sink, epoch);
    algorithm = timed.get();
    timed->start_run();
  }
  const Clock::time_point run_begin = Clock::now();
  const fl::RunResult result =
      fl::run_federated(*algorithm, setup.fed, spec.personalize_novel);
  const Clock::time_point run_end = Clock::now();
  const double run_s =
      std::chrono::duration<double>(run_end - run_begin).count();

  // --- correctness checks ---------------------------------------------------
  std::vector<std::string> errors;
  const int rounds = static_cast<int>(result.history.size());
  if (rounds != config.rounds) {
    errors.push_back("ran " + std::to_string(rounds) + " of " +
                     std::to_string(config.rounds) + " rounds");
  }
  int folds = 0;
  for (const fl::RoundStats& r : result.history) folds += r.participants;
  if (folds != spec.expected_folds()) {
    errors.push_back("folded " + std::to_string(folds) + " updates, expected " +
                     std::to_string(spec.expected_folds()));
  }
  auto check_accuracies = [&](const std::vector<double>& accs,
                              std::size_t expected, const char* what) {
    if (accs.size() != expected) {
      errors.push_back(std::string(what) + ": " + std::to_string(accs.size()) +
                       " accuracies, expected " + std::to_string(expected));
    }
    for (const double a : accs) {
      if (!std::isfinite(a) || a < 0.0 || a > 1.0) {
        errors.push_back(std::string(what) + ": accuracy outside [0, 1]");
        break;
      }
    }
  };
  check_accuracies(result.train_accuracies,
                   static_cast<std::size_t>(spec.expected_train_accuracies()),
                   "participating");
  check_accuracies(result.novel_accuracies,
                   spec.personalize_novel
                       ? static_cast<std::size_t>(spec.novel_clients)
                       : 0,
                   "novel");
  if (timed != nullptr) {
    if (timed->commit_times().size() != static_cast<std::size_t>(rounds)) {
      errors.push_back("wrapper saw " +
                       std::to_string(timed->commit_times().size()) +
                       " commits for " + std::to_string(rounds) + " rounds");
    }
    if (!timed->personalized()) errors.push_back("personalize() never ran");
  }

  const metrics::AccuracyStats acc =
      metrics::compute_stats(result.train_accuracies);
  const double peak_rss = peak_rss_mib();
  JsonObject record;
  record.str("workload", spec.name)
      .num("seed", static_cast<double>(options.seed))
      .str("mode", options.mode)
      .boolean("smoke", options.smoke)
      .str("hash", hex(state_hash(result.final_state)))
      .str("history_digest",
           hex(history_digest(result.history, config.async_mode)))
      .num("rounds", rounds)
      .num("folds", folds)
      .num("hardware_threads", std::thread::hardware_concurrency())
      .num("device_threads", config.threads)
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE);

  JsonObject e2e;
  e2e.num("setup_s", setup_s)
      .num("total_s", setup_s + run_s)
      .num("peak_rss_mb", peak_rss)
      .num("wire_mb", static_cast<double>(result.traffic.logical_bytes) / 1e6)
      .num("mean_acc", acc.mean)
      .num("acc_std", acc.stddev);

  if (timed != nullptr && errors.empty()) {
    const double train_s = timed->personalize_start() - timed->run_start();
    std::vector<double> round_ms;
    double previous = timed->run_start();
    for (const double t : timed->commit_times()) {
      round_ms.push_back((t - previous) * 1e3);
      previous = t;
    }
    const Tail round_tail = tail_of(round_ms);
    e2e.num("train_s", train_s)
        .num("round_ms_tail", round_tail.value)
        .num("round_ms_tail_percentile", round_tail.percentile)
        .num("round_ms_samples", static_cast<double>(round_tail.samples))
        .num("round_ms_p50", median(round_ms));

    if (traced) {
      const std::vector<Span>& spans = tracer.spans();
      double setup_parts = 0.0;
      double rounds_tiled = 0.0;
      int round_spans = 0;
      double round_self = 0.0;
      std::vector<double> local_ms;
      std::vector<double> personalize_ms;
      double local_total = 0.0;
      double fold_total = 0.0;
      double fold_params = 0.0;
      double merge_total = 0.0;
      double finish_total = 0.0;
      for (const Span& s : spans) {
        if (s.parent == "setup") setup_parts += s.duration();
        if (s.name == "round") {
          rounds_tiled += s.duration();
          round_self += self_time(s, spans);
          ++round_spans;
        } else if (s.name == "algos.local_update") {
          local_ms.push_back(s.duration() * 1e3);
          local_total += s.duration();
        } else if (s.name == "algos.personalize") {
          personalize_ms.push_back(s.duration() * 1e3);
        } else if (s.name == "flapi.fold") {
          fold_total += s.duration();
          fold_params += static_cast<double>(s.work);
        } else if (s.name == "flapi.merge") {
          merge_total += s.duration();
        } else if (s.name == "flapi.finish") {
          finish_total += s.duration();
        }
      }
      // After its final commit an async run waits out the updates still in
      // flight (they end as late_dropped); the `drain` span covers that
      // device work, so rounds plus drain tile train_s.
      const double last_commit = timed->commit_times().back();
      double drain_end = last_commit;
      for (const Span& s : spans) {
        if (s.name == "algos.local_update") {
          drain_end = std::max(drain_end, s.end);
        }
      }
      drain_end = std::min(drain_end, timed->personalize_start());
      const double drain_s = drain_end - last_commit;
      const double personalize_s =
          tracer.seconds_since_epoch(run_end) - timed->personalize_start();
      tracer.record({"drain", "", rounds, -1, last_commit, drain_end, 0});
      tracer.record({"personalize", "", 0, -1, timed->personalize_start(),
                     tracer.seconds_since_epoch(run_end), 0});
      auto tiles = [](double parts, double whole) {
        return std::abs(parts - whole) <= kTileAbsS + kTileRel * whole;
      };
      if (!tiles(setup_parts, setup_s)) {
        errors.push_back("setup children sum to " +
                         std::to_string(setup_parts) + " s of setup_s " +
                         std::to_string(setup_s));
      }
      if (round_spans != rounds || !tiles(rounds_tiled + drain_s, train_s)) {
        errors.push_back(std::to_string(round_spans) + " round spans and " +
                         std::to_string(drain_s) + " s of drain tile " +
                         std::to_string(rounds_tiled + drain_s) +
                         " s of train_s " + std::to_string(train_s));
      }

      const fl::PhaseTimes& ph = result.phases;
      // Phases the server thread runs itself: with shards, decode and fold
      // move to shard workers, so only dispatch and commit remain.
      const double server_busy =
          ph.dispatch_seconds + ph.commit_seconds +
          (config.agg_shards > 1 ? 0.0
                                 : ph.decode_seconds + ph.fold_seconds);
      std::uint64_t wire = 0, f32 = 0, bcast = 0, coll = 0, ser = 0;
      double staleness_sum = 0.0;
      int staleness_max = 0, late = 0;
      for (const fl::RoundStats& r : result.history) {
        wire += r.update_bytes_wire;
        f32 += r.update_bytes_f32;
        bcast += r.bytes_broadcast;
        coll += r.bytes_collected;
        ser += r.serializations;
        staleness_sum += r.staleness_mean;
        staleness_max = std::max(staleness_max, r.staleness_max);
        late += r.late_dropped;
      }
      const auto [encode_us, decode_us] =
          replay_codec(config, timed->captures());
      const Tail local_tail = tail_of(local_ms);
      const double device_threads =
          static_cast<double>(config.threads > 0 ? config.threads : 1);
      JsonObject layers;
      layers.num("data.synth_s", setup.synth_s)
          .num("data.partition_s", setup.partition_s)
          .num("fl.fed_dataset_s", setup.fed_dataset_s)
          .num("algos.make_algorithm_s", setup.make_algorithm_s)
          .num("algos.local_update_ms_p50", median(local_ms))
          .num("algos.local_update_ms_tail", local_tail.value)
          .num("algos.local_update_tail_percentile", local_tail.percentile)
          .num("algos.local_updates", static_cast<double>(local_ms.size()))
          .num("algos.device_util", local_total / (device_threads * train_s))
          .num("fl.dispatch_s", ph.dispatch_seconds)
          .num("fl.decode_s", ph.decode_seconds)
          .num("fl.fold_s", ph.fold_seconds)
          .num("fl.commit_s", ph.commit_seconds)
          .num("fl.server_wait_s", train_s - server_busy)
          .num("fl.round_self_s", round_self)
          .num("fl.drain_s", drain_s)
          .num("flapi.fold_ns_per_param",
               fold_params > 0 ? fold_total / fold_params * 1e9 : 0.0)
          .num("flapi.merge_s", merge_total)
          .num("flapi.finish_s", finish_total)
          .num("flapi.personalize_ms_p50", median(personalize_ms))
          .num("fl.personalize_s", personalize_s)
          .num("comm.update_wire_ratio",
               f32 > 0 ? static_cast<double>(wire) / static_cast<double>(f32)
                       : 0.0)
          .num("comm.bytes_broadcast_mb", static_cast<double>(bcast) / 1e6)
          .num("comm.bytes_collected_mb", static_cast<double>(coll) / 1e6)
          .num("comm.serializations_per_round",
               static_cast<double>(ser) / std::max(1, rounds))
          .num("comm.encode_us_mean", encode_us)
          .num("comm.decode_us_mean", decode_us)
          .num("fl.staleness_mean", staleness_sum / std::max(1, rounds))
          .num("fl.staleness_max", staleness_max)
          .num("fl.late_dropped", late)
          .num("setup_parts_s", setup_parts)
          .num("round_spans_s", rounds_tiled + drain_s)
          .num("tile_tolerance_abs_s", kTileAbsS)
          .num("tile_tolerance_rel", kTileRel);
      record.raw("layers", layers.close());
      if (!options.trace_out.empty() &&
          !write_trace_json(options.trace_out, tracer.spans())) {
        errors.push_back("cannot write " + options.trace_out);
      }
    }
  }
  record.raw("end_to_end", e2e.close());

  std::string error_list = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    error_list += (i ? ", " : "") + quote(errors[i]);
  }
  record.raw("errors", error_list + "]").boolean("ok", errors.empty());
  std::printf("%s\n", record.close().c_str());
  return 0;
}

}  // namespace
}  // namespace calibre::perfbench

int main(int argc, char** argv) {
  calibre::perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--mode" && has_value) {
      options.mode = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 1;
    }
  }
  try {
    return calibre::perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
