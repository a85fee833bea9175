#include "comm/codec.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/check.h"

// The vector types below are TU-internal and every use is inlined into the
// target_clones dispatch functions, so the ABI warning about passing wide
// vectors without AVX-512 enabled is noise here (same idiom as
// tensor/kernels.cc).
#pragma GCC diagnostic ignored "-Wpsabi"

namespace calibre::comm {
namespace {

// 16-lane SIMD groups, legalized per target exactly like the tensor
// kernels: one ZMM on AVX-512, two YMM on AVX2, four XMM on baseline SSE2.
typedef float vf32 __attribute__((vector_size(64), aligned(4), may_alias));
typedef std::uint32_t vu32 __attribute__((vector_size(64), aligned(4),
                                          may_alias));
typedef std::uint16_t vu16 __attribute__((vector_size(32), aligned(2),
                                          may_alias));
typedef std::uint8_t vu8 __attribute__((vector_size(16), aligned(1),
                                        may_alias));

constexpr std::size_t kLanes = 16;  // elements per vector group

// ThreadSanitizer cannot coexist with the ifunc resolvers target_clones
// emits, so TSan builds fall back to the default-target body. So does a
// build whose baseline already has AVX-512 (CALIBRE_NATIVE=ON on an AVX-512
// host): no clone would be wider than the default body, and GCC 12 fails
// with an internal compiler error building the x86-64-v3 clone of
// f16_to_f32_block from that baseline.
#if defined(__SANITIZE_THREAD__) || defined(__AVX512F__)
#define CALIBRE_CODEC_CLONES __attribute__((flatten))
#else
#define CALIBRE_CODEC_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                               "default"), flatten))
#endif

// Branchless f32 -> f16 for one 16-lane group, bit-identical to the scalar
// f32_to_f16 below for every input (RNE ties, subnormals, inf, NaN). The
// subnormal path rides the FPU: adding 0.5f aligns the value's mantissa so
// the float adder performs the shift *and* the round-to-nearest-even in one
// op; the normal path adds the rebias plus 0xFFF (+ the mantissa's odd bit)
// so plain truncation at >> 13 lands on nearest-even.
inline vu16 f32_to_f16_lanes(vu32 bits) {
  const vu32 sign = bits & 0x80000000u;
  const vu32 u = bits ^ sign;
  // Everything at or above 2^16 (the first f32 whose rounded f16 exponent is
  // 31) is inf after saturation; above-inf payloads are NaN and keep a set
  // mantissa bit (0x200) so they cannot decay to inf.
  const vu32 naninf =
      u > 0x7F800000u ? vu32{} + 0x7E00u : vu32{} + 0x7C00u;
  // Subnormal/zero result (value < 2^-14): 0.5f has ulp 2^-24 = one f16
  // subnormal step, so (value + 0.5f) - 0.5f_bits is the rounded mantissa.
  const vf32 half_one = (vf32)(vu32{} + (126u << 23));
  const vu32 sub_out = (vu32)((vf32)u + half_one) - (126u << 23);
  // Normal result: rebias 127 -> 15 ((15-127) << 23 == 0xC8000000), add
  // 0x0FFF plus the pre-round odd bit, truncate.
  const vu32 mant_odd = (u >> 13) & 1u;
  const vu32 norm_out = (u + 0xC8000FFFu + mant_odd) >> 13;
  vu32 out = u < (113u << 23) ? sub_out : norm_out;
  out = u >= ((127u + 16u) << 23) ? naninf : out;
  out |= sign >> 16;
  return __builtin_convertvector(out, vu16);
}

// Branchless f16 -> f32 for one 16-lane group; exact (and therefore
// bit-identical to the scalar f16_to_f32 below). Normals need only a shift
// and a rebias; inf/NaN get a second exponent bump to 0xFF; subnormals are
// renormalized by the FPU via one subtraction of 2^-14.
inline vf32 f16_to_f32_lanes(vu16 halves) {
  const vu32 h = __builtin_convertvector(halves, vu32);
  const vu32 shifted = (h & 0x7FFFu) << 13;
  const vu32 exp = shifted & 0x0F800000u;
  const vu32 o = shifted + ((127u - 15u) << 23);
  const vu32 infnan_out = o + ((128u - 16u) << 23);
  const vf32 magic = (vf32)(vu32{} + (113u << 23));  // 2^-14
  const vu32 sub_out = (vu32)((vf32)(o + (1u << 23)) - magic);
  vu32 out = exp == vu32{} + 0x0F800000u ? infnan_out : o;
  out = exp == vu32{} ? sub_out : out;
  out |= (h & 0x8000u) << 16;
  return (vf32)out;
}

}  // namespace

CALIBRE_CODEC_CLONES
void f32_to_f16_block(const float* src, const float* base, std::uint16_t* dst,
                      std::size_t count) {
  std::size_t i = 0;
  if (base == nullptr) {
    for (; i + kLanes <= count; i += kLanes) {
      *(vu16*)(dst + i) = f32_to_f16_lanes((vu32)*(const vf32*)(src + i));
    }
    for (; i < count; ++i) dst[i] = f32_to_f16(src[i]);
  } else {
    for (; i + kLanes <= count; i += kLanes) {
      const vf32 delta = *(const vf32*)(src + i) - *(const vf32*)(base + i);
      *(vu16*)(dst + i) = f32_to_f16_lanes((vu32)delta);
    }
    for (; i < count; ++i) dst[i] = f32_to_f16(src[i] - base[i]);
  }
}

CALIBRE_CODEC_CLONES
void f16_to_f32_block(const std::uint16_t* src, const float* base, float* dst,
                      std::size_t count) {
  std::size_t i = 0;
  if (base == nullptr) {
    for (; i + kLanes <= count; i += kLanes) {
      *(vf32*)(dst + i) = f16_to_f32_lanes(*(const vu16*)(src + i));
    }
    for (; i < count; ++i) dst[i] = f16_to_f32(src[i]);
  } else {
    for (; i + kLanes <= count; i += kLanes) {
      *(vf32*)(dst + i) =
          *(const vf32*)(base + i) + f16_to_f32_lanes(*(const vu16*)(src + i));
    }
    for (; i < count; ++i) dst[i] = base[i] + f16_to_f32(src[i]);
  }
}

std::uint8_t int8a_quantize(float value, float zero, float inv_scale) {
  // (value - zero) * inv_scale is sub-then-mul — not contractible into an
  // FMA — so scalar and vector lowering agree bit-for-bit. The clamp's
  // ordered comparisons send NaN to 0; +0.5 then truncation rounds
  // half-away-from-zero on the non-negative clamped range.
  float t = (value - zero) * inv_scale;
  t = t > 0.0f ? t : 0.0f;
  t = t < 255.0f ? t : 255.0f;
  return static_cast<std::uint8_t>(static_cast<std::uint32_t>(t + 0.5f));
}

float int8a_dequantize(std::uint8_t q, float zero, float scale) {
  return zero + scale * static_cast<float>(q);
}

CALIBRE_CODEC_CLONES
void int8a_quantize_block(const float* src, float zero, float inv_scale,
                          std::uint8_t* dst, std::size_t count) {
  const vf32 zero_v = vf32{} + zero;
  const vf32 inv_v = vf32{} + inv_scale;
  const vf32 lo_v = vf32{};
  const vf32 hi_v = vf32{} + 255.0f;
  const vf32 half_v = vf32{} + 0.5f;
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    vf32 t = (*(const vf32*)(src + i) - zero_v) * inv_v;
    t = t > lo_v ? t : lo_v;
    t = t < hi_v ? t : hi_v;
    const vu32 q = __builtin_convertvector(t + half_v, vu32);
    *(vu8*)(dst + i) = __builtin_convertvector(q, vu8);
  }
  for (; i < count; ++i) dst[i] = int8a_quantize(src[i], zero, inv_scale);
}

CALIBRE_CODEC_CLONES
void int8a_dequantize_block(const std::uint8_t* src, float zero, float scale,
                            float* dst, std::size_t count) {
  const vf32 zero_v = vf32{} + zero;
  const vf32 scale_v = vf32{} + scale;
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const vu32 q = __builtin_convertvector(*(const vu8*)(src + i), vu32);
    *(vf32*)(dst + i) = zero_v + scale_v * __builtin_convertvector(q, vf32);
  }
  for (; i < count; ++i) dst[i] = int8a_dequantize(src[i], zero, scale);
}

namespace {

// Affine parameters for one int8a block: zero = min, scale = range / 255,
// computed in double so the division rounds once. NaNs are skipped by the
// ordered comparisons; a block with no finite values (or any infinity)
// degrades to (0, 0) — every byte quantizes to 0 and dequantizes to 0.
void int8a_block_params(const float* src, std::size_t count, float* zero,
                        float* scale, float* inv_scale) {
  float lo = 0.0f;
  float hi = 0.0f;
  bool seen = false;
  for (std::size_t i = 0; i < count; ++i) {
    const float v = src[i];
    if (v != v) continue;  // NaN
    lo = seen && lo < v ? lo : v;
    hi = seen && hi > v ? hi : v;
    seen = true;
  }
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  if (!seen || !(range >= 0.0) || range > 6.8e38) {  // empty, NaN or inf range
    *zero = 0.0f;
    *scale = 0.0f;
    *inv_scale = 0.0f;
    return;
  }
  *zero = lo;
  *scale = static_cast<float>(range / 255.0);
  *inv_scale = *scale > 0.0f
                   ? static_cast<float>(1.0 / static_cast<double>(*scale))
                   : 0.0f;
}

}  // namespace

std::string codec_name(Codec codec) {
  switch (codec) {
    case Codec::kAuto: return "auto";
    case Codec::kF32: return "f32";
    case Codec::kF16: return "f16";
    case Codec::kDelta16: return "delta16";
    case Codec::kTopK16: return "topk16";
    case Codec::kInt8A: return "int8a";
  }
  CALIBRE_CHECK_MSG(false, "unknown codec " << static_cast<int>(codec));
  return {};
}

Codec codec_from_name(const std::string& name) {
  if (name == "auto") return Codec::kAuto;
  if (name == "f32") return Codec::kF32;
  if (name == "f16") return Codec::kF16;
  if (name == "delta16") return Codec::kDelta16;
  if (name == "topk16") return Codec::kTopK16;
  if (name == "int8a") return Codec::kInt8A;
  CALIBRE_CHECK_MSG(false,
                    "unknown wire codec '"
                        << name
                        << "' (expected auto | f32 | f16 | delta16 | topk16 |"
                           " int8a)");
  return Codec::kF32;
}

std::uint16_t f32_to_f16(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  const auto sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t exp = (bits >> 23) & 0xFFu;
  std::uint32_t mant = bits & 0x7FFFFFu;
  if (exp == 0xFFu) {
    // inf stays inf; NaN keeps a set mantissa bit so it cannot decay to inf.
    return sign | 0x7C00u | (mant != 0 ? 0x200u : 0u);
  }
  // Re-bias 127 -> 15.
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 0x1F) return sign | 0x7C00u;  // overflow -> inf
  if (e <= 0) {
    if (e < -10) return sign;  // below the smallest subnormal -> signed zero
    // Subnormal: shift the 24-bit mantissa (implicit bit restored) down to
    // 10 bits, rounding to nearest-even on the dropped remainder.
    mant |= 0x800000u;
    const int shift = 14 - e;  // in [14, 24]
    const std::uint32_t half = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    std::uint32_t out = sign | half;
    if (rem > halfway || (rem == halfway && (out & 1u))) ++out;
    return static_cast<std::uint16_t>(out);
  }
  // Normal: round the 23-bit mantissa to 10 bits (nearest-even). A carry out
  // of the mantissa correctly bumps the exponent, up to and including inf.
  std::uint32_t out =
      sign | (static_cast<std::uint32_t>(e) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) ++out;
  return static_cast<std::uint16_t>(out);
}

float f16_to_f32(std::uint16_t half) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half) & 0x8000u) << 16;
  std::uint32_t exp = (half >> 10) & 0x1Fu;
  std::uint32_t mant = half & 0x3FFu;
  std::uint32_t bits;
  if (exp == 0x1Fu) {
    bits = sign | 0x7F800000u | (mant << 13);  // inf / NaN
  } else if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // signed zero
    } else {
      // Subnormal: normalize into an f32 with an explicit exponent.
      std::uint32_t e = 127 - 15 + 1;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        --e;
      }
      bits = sign | (e << 23) | ((mant & 0x3FFu) << 13);
    }
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float value = 0.0f;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::size_t encoded_size(Codec codec, std::size_t count, std::size_t topk) {
  const std::size_t header = sizeof(std::uint8_t) + sizeof(std::uint64_t);
  switch (codec) {
    case Codec::kF32:
      return header + count * sizeof(float);
    case Codec::kF16:
    case Codec::kDelta16:
      return header + count * sizeof(std::uint16_t);
    case Codec::kTopK16:
      if (topk == 0) {  // the degraded (reference-less) f16 form
        return header + count * sizeof(std::uint16_t);
      }
      return header + sizeof(std::uint64_t) +
             topk * (sizeof(std::uint32_t) + sizeof(std::uint16_t));
    case Codec::kInt8A: {
      const std::size_t blocks =
          (count + kInt8BlockSize - 1) / kInt8BlockSize;
      return header + blocks * 2 * sizeof(float) + count;
    }
    case Codec::kAuto: break;
  }
  CALIBRE_CHECK_MSG(false, "encoded_size on config-only codec auto");
  return 0;
}

void encode_values(Writer& writer, const std::vector<float>& values,
                   Codec codec, const float* base, std::size_t base_size,
                   std::size_t topk) {
  CALIBRE_CHECK_MSG(codec != Codec::kAuto,
                    "codec auto is config-only; resolve it to a concrete "
                    "codec before encoding");
  if ((codec == Codec::kDelta16 || codec == Codec::kTopK16) &&
      (base == nullptr || base_size != values.size())) {
    // No usable reference (e.g. a payload sized unlike the broadcast):
    // degrade to plain f16. The tag written below keeps decoding unambiguous.
    codec = Codec::kF16;
  }
  writer.write_u8(static_cast<std::uint8_t>(codec));
  switch (codec) {
    case Codec::kF32:
      writer.write_f32_vector(values);
      return;
    case Codec::kF16: {
      std::vector<std::uint16_t> halves(values.size());
      f32_to_f16_block(values.data(), nullptr, halves.data(), values.size());
      writer.write_u16_vector(halves);
      return;
    }
    case Codec::kDelta16: {
      std::vector<std::uint16_t> halves(values.size());
      f32_to_f16_block(values.data(), base, halves.data(), values.size());
      writer.write_u16_vector(halves);
      return;
    }
    case Codec::kTopK16: {
      const std::size_t count = values.size();
      CALIBRE_CHECK_MSG(topk <= count && (topk >= 1 || count == 0),
                        "topk16 k " << topk << " out of [1, " << count << "]");
      std::vector<float> deltas(count);
      std::vector<std::uint32_t> mags(count);
      for (std::size_t i = 0; i < count; ++i) {
        deltas[i] = values[i] - base[i];
        std::uint32_t bits = 0;
        std::memcpy(&bits, &deltas[i], sizeof(bits));
        mags[i] = bits & 0x7FFFFFFFu;
      }
      // Select the k largest-magnitude deltas under a strict total order
      // (|delta| descending, index ascending on ties) so the selection is
      // deterministic. Magnitudes compare as their integer bit patterns —
      // monotone with |float| and well-ordered even for NaN deltas.
      //
      // Sampled-threshold pre-pass: estimate the k-th largest magnitude
      // from a fixed-stride sample and keep only candidates at or above
      // it, so nth_element runs over a few-times-k candidate set instead
      // of the whole tensor. The filter is by magnitude alone, so whenever
      // >= k candidates survive the set provably contains the exact top-k
      // (the k-th largest magnitude is >= the threshold) including every
      // element tied with the k-th — the selection below stays
      // bit-identical to the unfiltered path. If the sample overshoots
      // (< k survivors), fall back to threshold 0, which keeps everything.
      std::uint32_t floor_mag = 0;
      if (count >= 4096 && topk * 4 <= count) {
        constexpr std::size_t kSampleCap = 2048;
        const std::size_t stride =
            count > kSampleCap ? count / kSampleCap : 1;
        std::vector<std::uint32_t> sample;
        sample.reserve(count / stride + 1);
        for (std::size_t i = 0; i < count; i += stride) {
          sample.push_back(mags[i]);
        }
        // Aim at twice the proportional rank so the candidate set lands
        // near 2k elements; rank 0 (the sample max) would filter too hard.
        std::size_t rank = (2 * topk * sample.size()) / count;
        if (rank >= sample.size()) rank = sample.size() - 1;
        std::nth_element(sample.begin(),
                         sample.begin() + static_cast<std::ptrdiff_t>(rank),
                         sample.end(),
                         [](std::uint32_t a, std::uint32_t b) {
                           return a > b;
                         });
        floor_mag = sample[rank];
      }
      std::vector<std::uint32_t> indices;
      indices.reserve(floor_mag != 0 ? std::min(count, topk * 4) : count);
      for (std::size_t i = 0; i < count; ++i) {
        if (mags[i] >= floor_mag) {
          indices.push_back(static_cast<std::uint32_t>(i));
        }
      }
      if (indices.size() < topk) {  // overshoot: take the unfiltered path
        indices.resize(count);
        std::iota(indices.begin(), indices.end(), 0u);
      }
      std::nth_element(indices.begin(),
                       indices.begin() + static_cast<std::ptrdiff_t>(topk),
                       indices.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         const std::uint32_t ma = mags[a];
                         const std::uint32_t mb = mags[b];
                         return ma != mb ? ma > mb : a < b;
                       });
      indices.resize(topk);
      std::sort(indices.begin(), indices.end());  // wire order: ascending
      std::vector<float> selected(topk);
      for (std::size_t j = 0; j < topk; ++j) selected[j] = deltas[indices[j]];
      std::vector<std::uint16_t> halves(topk);
      f32_to_f16_block(selected.data(), nullptr, halves.data(), topk);
      writer.write_u64(count);
      writer.write_u64(topk);
      writer.write_u32_array(indices.data(), topk);
      writer.write_u16_array(halves.data(), topk);
      return;
    }
    case Codec::kInt8A: {
      const std::size_t count = values.size();
      const std::size_t blocks =
          (count + kInt8BlockSize - 1) / kInt8BlockSize;
      writer.write_u64(count);
      std::vector<float> zeros(blocks);
      std::vector<float> scales(blocks);
      std::vector<std::uint8_t> quants(count);
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t begin = b * kInt8BlockSize;
        const std::size_t len = std::min(kInt8BlockSize, count - begin);
        float inv_scale = 0.0f;
        int8a_block_params(values.data() + begin, len, &zeros[b], &scales[b],
                           &inv_scale);
        int8a_quantize_block(values.data() + begin, zeros[b], inv_scale,
                             quants.data() + begin, len);
        writer.write_f32(zeros[b]);
        writer.write_f32(scales[b]);
      }
      writer.write_u8_array(quants.data(), count);
      return;
    }
    case Codec::kAuto: break;  // rejected above
  }
  CALIBRE_CHECK_MSG(false, "unknown codec " << static_cast<int>(codec));
}

std::vector<float> decode_values(Reader& reader, const float* base,
                                 std::size_t base_size) {
  const std::uint8_t tag = reader.read_u8();
  switch (static_cast<Codec>(tag)) {
    case Codec::kF32:
      return reader.read_f32_vector();
    case Codec::kF16: {
      const std::vector<std::uint16_t> halves = reader.read_u16_vector();
      std::vector<float> values(halves.size());
      f16_to_f32_block(halves.data(), nullptr, values.data(), halves.size());
      return values;
    }
    case Codec::kDelta16: {
      const std::vector<std::uint16_t> halves = reader.read_u16_vector();
      CALIBRE_CHECK_MSG(base != nullptr,
                        "delta16 block of " << halves.size()
                                            << " values with no reference");
      CALIBRE_CHECK_EQ(base_size, halves.size(),
                       "delta16 reference/block size mismatch");
      std::vector<float> values(halves.size());
      f16_to_f32_block(halves.data(), base, values.data(), halves.size());
      return values;
    }
    case Codec::kTopK16: {
      const std::uint64_t total = reader.read_u64();
      const std::uint64_t k = reader.read_u64();
      // The declared k is validated against the declared total, and both
      // index and value lists are bounded by the remaining bytes, before any
      // allocation happens. The output itself is sized by the *trusted*
      // reference length, never by wire-controlled counts.
      CALIBRE_CHECK_LE(k, total, "topk16 corrupt k");
      CALIBRE_CHECK_MSG(base != nullptr,
                        "topk16 block of " << total
                                           << " values with no reference");
      CALIBRE_CHECK_EQ(base_size, total,
                       "topk16 reference/block size mismatch");
      const std::vector<std::uint32_t> indices = reader.read_u32_array(k);
      const std::vector<std::uint16_t> halves = reader.read_u16_array(k);
      std::vector<float> values(base, base + base_size);
      std::uint64_t prev = 0;
      for (std::uint64_t j = 0; j < k; ++j) {
        const std::uint32_t idx = indices[j];
        CALIBRE_CHECK_MSG(idx < total && (j == 0 || idx > prev),
                          "topk16 corrupt index " << idx << " at " << j);
        values[idx] += f16_to_f32(halves[j]);
        prev = idx;
      }
      return values;
    }
    case Codec::kInt8A: {
      const std::uint64_t count = reader.read_u64();
      // One payload byte per element, so a count past the remaining bytes is
      // corrupt — checked before deriving the block count from it (and long
      // before allocating), keeping the arithmetic below overflow-free.
      CALIBRE_CHECK_LE(count, reader.remaining(), "int8a corrupt count");
      const std::size_t blocks =
          (count + kInt8BlockSize - 1) / kInt8BlockSize;
      CALIBRE_CHECK_LE(blocks * 2 * sizeof(float) + count, reader.remaining(),
                       "int8a truncated block headers");
      std::vector<float> zeros(blocks);
      std::vector<float> scales(blocks);
      for (std::size_t b = 0; b < blocks; ++b) {
        zeros[b] = reader.read_f32();
        scales[b] = reader.read_f32();
      }
      const std::vector<std::uint8_t> quants = reader.read_u8_array(count);
      std::vector<float> values(count);
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t begin = b * kInt8BlockSize;
        const std::size_t len =
            std::min<std::size_t>(kInt8BlockSize, count - begin);
        int8a_dequantize_block(quants.data() + begin, zeros[b], scales[b],
                               values.data() + begin, len);
      }
      return values;
    }
    case Codec::kAuto:
      break;  // tag 0 never appears on a valid wire
  }
  CALIBRE_CHECK_MSG(false, "corrupt codec tag " << static_cast<int>(tag));
  return {};
}

}  // namespace calibre::comm
