#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace calibre::perfbench {
namespace {

using SpanKey = std::pair<std::string, int>;  // (name, id)

// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double run_start = lo;
  double run_end = lo;
  for (const auto& [start, end] : intervals) {
    const double s = std::max(start, lo);
    const double e = std::min(end, hi);
    if (e <= s) continue;
    if (s > run_end) {
      total += run_end - run_start;
      run_start = s;
      run_end = e;
    } else {
      run_end = std::max(run_end, e);
    }
  }
  return total + (run_end - run_start);
}

std::map<SpanKey, std::vector<std::pair<double, double>>> children_by_parent(
    const std::vector<Span>& spans) {
  std::map<SpanKey, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (!s.parent.empty()) {
      children[{s.parent, s.id}].emplace_back(s.start, s.end);
    }
  }
  return children;
}

double self_time_from(
    const Span& span,
    const std::map<SpanKey, std::vector<std::pair<double, double>>>& children) {
  const auto it = children.find({span.name, span.id});
  if (it == children.end()) return span.duration();
  return span.duration() - covered(it->second, span.start, span.end);
}

}  // namespace

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

double self_time(const Span& span, const std::vector<Span>& spans) {
  return self_time_from(span, children_by_parent(spans));
}

bool write_trace_json(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const auto children = children_by_parent(spans);
  struct Totals {
    int count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Totals> totals;
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = self_time_from(s, children);
    Totals& t = totals[s.name];
    ++t.count;
    t.total += s.duration();
    t.self += self;
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"id\": %d, \"parent\": \"%s\", "
                 "\"client\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f, \"work\": %llu}%s\n",
                 s.name.c_str(), s.id, s.parent.c_str(), s.client, s.start,
                 s.end, self, static_cast<unsigned long long>(s.work),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "], \"by_name\": {\n");
  std::size_t n = 0;
  for (const auto& [name, t] : totals) {
    std::fprintf(out,
                 "  \"%s\": {\"count\": %d, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 name.c_str(), t.count, t.total, t.self,
                 ++n < totals.size() ? "," : "");
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

}  // namespace calibre::perfbench
