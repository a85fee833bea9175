#include "flapi/fixed_accum.h"

#include <bit>

// ThreadSanitizer cannot coexist with the ifunc resolvers target_clones
// emits, so TSan builds fall back to the default-target body.
#if defined(__SANITIZE_THREAD__)
#define CALIBRE_FOLD_CLONES
#else
#define CALIBRE_FOLD_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                               "default")))
#endif

namespace calibre::fl::fixedpoint {
namespace {

// v + (2^52 + 2^51) lands in [2^52, 2^53), where the double ulp is 1, so for
// an integral |v| < 2^51 the sum is exact and its bit pattern is the magic's
// plus v.
constexpr double kMagic = 0x1.8p52;
constexpr std::int64_t kMagicBits = std::bit_cast<std::int64_t>(kMagic);

inline std::int64_t exact_i64(double v) {
  return std::bit_cast<std::int64_t>(v + kMagic) - kMagicBits;
}

// True when every w * x[i] is finite and within kMaxAbsTerm. The scaled
// comparison matches quantize()'s; NaN fails it.
CALIBRE_FOLD_CLONES
bool all_in_domain(double w, const float* x, std::size_t n) {
  constexpr double kLimit = kMaxAbsTerm * kScale;
  int bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double scaled = w * static_cast<double>(x[i]) * kScale;
    bad |= !(std::fabs(scaled) <= kLimit);
  }
  return bad == 0;
}

// limbs[i] += split(quantize(w * x[i])), for in-domain terms only.
CALIBRE_FOLD_CLONES
void accumulate(double w, const float* __restrict x, std::size_t n,
                std::int64_t* __restrict hi, std::int64_t* __restrict mid,
                std::int64_t* __restrict lo) {
  for (std::size_t i = 0; i < n; ++i) {
    const double s = std::rint(w * static_cast<double>(x[i]) * kScale);
    const double h = std::trunc(s * 0x1p-64);
    const double r = s - h * 0x1p64;
    const double m = std::trunc(r * 0x1p-32);
    const double l = r - m * 0x1p32;
    hi[i] += exact_i64(h);
    mid[i] += exact_i64(m);
    lo[i] += exact_i64(l);
  }
}

}  // namespace

void LimbAcc::add(std::initializer_list<WeightedTerms> parts) {
  CALIBRE_CHECK_LT(folds_, kMaxFolds, "too many folds for one accumulator");
  std::size_t dim = 0;
  for (const WeightedTerms& part : parts) {
    CALIBRE_CHECK_MSG(
        all_in_domain(part.weight, part.values.data(), part.values.size()),
        "fixed-point fold term magnitude exceeds 2^42");
    dim += part.values.size();
  }
  if (hi_.empty()) {
    CALIBRE_CHECK_MSG(dim > 0, "empty update state");
    hi_.assign(dim, 0);
    mid_.assign(dim, 0);
    lo_.assign(dim, 0);
  }
  CALIBRE_CHECK_EQ(hi_.size(), dim, "update dimension changed mid-round");
  std::size_t offset = 0;
  for (const WeightedTerms& part : parts) {
    accumulate(part.weight, part.values.data(), part.values.size(),
               hi_.data() + offset, mid_.data() + offset, lo_.data() + offset);
    offset += part.values.size();
  }
  ++folds_;
}

void LimbAcc::merge(LimbAcc&& other) {
  CALIBRE_CHECK_MSG(&other != this, "merge() needs a distinct accumulator");
  if (other.folds_ == 0) return;
  CALIBRE_CHECK_LE(folds_ + other.folds_, kMaxFolds,
                   "merged fold count exceeds the accumulator bound");
  if (folds_ == 0) {
    hi_ = std::move(other.hi_);
    mid_ = std::move(other.mid_);
    lo_ = std::move(other.lo_);
  } else {
    CALIBRE_CHECK_EQ(size(), other.size(),
                     "shard accumulators disagree on update dimension");
    for (std::size_t i = 0; i < size(); ++i) {
      hi_[i] += other.hi_[i];
      mid_[i] += other.mid_[i];
      lo_[i] += other.lo_[i];
    }
  }
  folds_ += other.folds_;
  other = LimbAcc();
}

}  // namespace calibre::fl::fixedpoint
