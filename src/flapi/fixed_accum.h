// Exact, order-independent accumulation for mergeable streaming folds.
//
// A StreamingAggregator that wants to support hierarchical merge() must
// produce the SAME bits whether its updates were folded flat on one thread
// or split across N shard aggregators and combined — for any N and any
// split. Floating-point addition is not associative, so a double
// accumulator cannot deliver that: (a + b) + c and a + (b + c) differ in
// the last ulp often enough to break final-state hash checks.
//
// The fix is to make the accumulator an integer. Each term is quantized
// ONCE to a fixed-point grid (resolution 2^-64) and summed exactly in
// integers; integer addition is associative and commutative, so every fold
// schedule — flat, sharded, two-level edge trees — lands on identical bits
// by construction. Accuracy is not sacrificed: the quantization keeps the
// full double mantissa of each term (the scaled value is rounded to nearest
// once, exactly like the final rounding of a double multiply), and the
// summation afterwards is EXACT, which is strictly tighter than the
// rounding a running double accumulator performs on every fold.
//
// Domain: |term| <= kMaxAbsTerm (2^42 ~ 4.4e12), finite, and at most
// kMaxFolds (2^20) folds per accumulator, CHECK-enforced. Resolution
// 2^-64 ~ 5.4e-20 is invisible after the float cast at finish() for any
// aggregate whose magnitude exceeds ~1e-12 — far below every
// weight/parameter scale the algorithms produce.
//
// Representation. A scalar (the total weight) is one Acc = __int128. A
// vector of coordinates is a LimbAcc: each coordinate is three signed int64
// limbs (hi, mid, lo) of radix 2^32, worth hi*2^64 + mid*2^32 + lo grid
// units. A term s = rint(w*x*2^64) is split in double arithmetic:
//   h = trunc(s * 2^-64)    r = s - h*2^64
//   m = trunc(r * 2^-32)    l = r - m*2^32
// Every step is exact: scaling by a power of two only moves the exponent,
// and r (resp. l) consists of a subset of the mantissa bits of s (resp. r),
// so it is representable and the subtraction that produces it is exact
// (and a fused multiply-add would give the same exact value). Truncation
// gives h, m and l the sign of s, so h*2^64 + m*2^32 + l == s, the same
// integer quantize() returns. |h| <= 2^42, |m| < 2^32 and |l| < 2^32 are
// all below 2^51, so each converts to int64 exactly through the magic
// constant 2^52 + 2^51, which also lets the loop vectorize on ISAs without
// a packed double->int64 conversion.
//
// Overflow. After at most 2^20 folds, |sum hi| <= 2^62 and |sum mid|,
// |sum lo| < 2^52, so no limb sum can overflow int64 — and merge() of
// partials that together hold at most 2^20 folds adds limbs under the same
// bound. The recombined value is below 2^62 * 2^64 + 2^52 * 2^32 + 2^52 <
// 2^127, so it fits the __int128 that at() returns.
//
// Checks. add() runs one read-only pre-pass over every term of the update
// and CHECK-fails (NaN and +-Inf included) before any limb is written, so a
// rejected update leaves the accumulator exactly as it was.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/check.h"

namespace calibre::fl::fixedpoint {

// 128-bit signed accumulator (GCC/Clang builtin; the repo targets both).
using Acc = __int128;

inline constexpr double kScale = 0x1p64;      // grid: 1 ulp = 2^-64
inline constexpr double kInvScale = 0x1p-64;
inline constexpr double kMaxAbsTerm = 0x1p42; // |term| bound, CHECKed
inline constexpr int kMaxFolds = 1 << 20;     // folds-per-accumulator bound

// Quantizes one scalar term to the grid: round-to-nearest-even of v * 2^64,
// computed in double (keeps v's full mantissa; the conversion to int128 is
// exact because the rounded value is integral). CHECK-fails on terms
// outside the overflow-safe domain instead of silently wrapping.
inline Acc quantize(double v) {
  const double scaled = v * kScale;
  CALIBRE_CHECK_MSG(scaled <= kMaxAbsTerm * kScale &&
                        scaled >= -kMaxAbsTerm * kScale,
                    "fixed-point fold term magnitude exceeds 2^42");
  return static_cast<Acc>(std::rint(scaled));
}

// Exact-to-double readback (one rounding, at the end).
inline double to_double(Acc a) { return static_cast<double>(a) * kInvScale; }

// The coordinates weight * values[i] of one update (or one segment of it).
struct WeightedTerms {
  double weight;
  std::span<const float> values;
};

// Per-coordinate exact accumulator over float vectors, in three int64 limbs
// per coordinate (see the header comment). Coordinate i accumulates
// quantize(weight * values[i]) of every add(); at(i) returns the sum.
class LimbAcc {
 public:
  // Adds one update whose coordinates are the concatenation of `parts`. The
  // first add() fixes the dimension; later ones must match it. CHECK-fails
  // without touching any limb on a term outside the domain or a fold past
  // kMaxFolds.
  void add(std::initializer_list<WeightedTerms> parts);

  // Adds `other`'s sums coordinate-wise and leaves `other` empty. Either
  // side may be empty (the merge identity).
  void merge(LimbAcc&& other);

  // The exact sum at coordinate i, in grid units.
  Acc at(std::size_t i) const {
    return static_cast<Acc>(hi_[i]) * (static_cast<Acc>(1) << 64) +
           static_cast<Acc>(mid_[i]) * (static_cast<Acc>(1) << 32) +
           static_cast<Acc>(lo_[i]);
  }

  std::size_t size() const { return hi_.size(); }
  int folds() const { return folds_; }

 private:
  std::vector<std::int64_t> hi_, mid_, lo_;
  int folds_ = 0;
};

}  // namespace calibre::fl::fixedpoint
