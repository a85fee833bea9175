// Seeded violation: an aggregator that keeps one __int128 per coordinate
// and quantizes every term on its own — the slow second fold path that
// fixedpoint::LimbAcc (flapi/fixed_accum.h) replaced.
// expect-lint: fixed-accum
#include <vector>

namespace fixedpoint {
using Acc = __int128;
Acc quantize(double v);
}  // namespace fixedpoint

struct SlowFold {
  std::vector<fixedpoint::Acc> sums;
  std::vector<__int128> control_sums;
  void fold(const std::vector<float>& x) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      sums[i] += fixedpoint::quantize(x[i]);
    }
  }
};
