// In-memory spans for the benchmark's traced runs.
//
// A span records one call into a layer, timed from outside that layer:
// name, start, end, and its parent. Spans of one round share an id (the
// round or commit index); setup and personalization spans use id 0, and
// client spans also carry the client id. Spans stay in memory while the
// experiment runs and are written out once at exit, so recording costs a
// clock read and a locked push_back.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace calibre::perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string parent;  // parent span name ("" for a root span)
  int id = 0;          // round / commit index; parent is (parent, id)
  int client = -1;     // client id for device and personalization spans
  double start = 0.0;  // seconds since the experiment's epoch
  double end = 0.0;
  std::uint64_t work = 0;  // layer work count (parameters for a fold)

  double duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double seconds_since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }
  double now() const { return seconds_since_epoch(Clock::now()); }

  // Thread-safe: device and shard threads record concurrently.
  void record(Span span);

  // Call only after every recording thread has quiesced.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// The span's duration minus the part of its interval covered by its
// children (spans naming it as parent with the same id). Children running
// in parallel are merged into one covered set before subtracting.
double self_time(const Span& span, const std::vector<Span>& spans);

// Writes every span plus per-name totals (count, total and self seconds)
// as JSON.
bool write_trace_json(const std::string& path, const std::vector<Span>& spans);

}  // namespace calibre::perfbench
