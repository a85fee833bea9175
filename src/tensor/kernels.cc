#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/thread_pool.h"

// The vector type below is TU-internal and every use is inlined into the
// target_clones dispatch functions, so the ABI warning about passing
// 64-byte vectors without AVX-512 enabled is noise here.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace calibre::tensor::kernels {
namespace {

// 16-float SIMD lane group. GCC legalizes it per target: one ZMM on
// AVX-512, two YMM on AVX2, four XMM on baseline SSE2 — so one microkernel
// body serves every clone. aligned(4) permits unaligned loads/stores;
// may_alias keeps float* <-> vf* casts defined.
typedef float vf __attribute__((vector_size(64), aligned(4), may_alias));

constexpr std::int64_t kVecWidth = 16;  // floats per vf

// Output register tile: 8 rows x 32 columns = 16 vf accumulators. On
// AVX-512 that is 16 ZMM registers of C held across the whole K sweep, the
// sweet spot measured on this microkernel (4x over streaming C through
// memory every k step). kColTile is two vf lanes so the B strip load is
// amortised over 8 rows.
constexpr std::int64_t kRowTile = 8;
constexpr std::int64_t kColTile = 32;

// Rows per parallel_for chunk, kept a multiple of kRowTile so threads never
// split a microkernel tile (which keeps results independent of thread
// count).
constexpr std::int64_t kRowGrain = 32;

common::ThreadPool& kernel_pool() {
  static common::ThreadPool pool(common::ThreadPool::default_parallelism());
  return pool;
}

// Partitions [0, n) output rows across the kernel pool when the kernel is
// big enough to amortise dispatch; runs inline otherwise.
template <typename Fn>
void for_each_row_chunk(std::int64_t n, std::int64_t flops, const Fn& fn) {
  const std::int64_t threshold = parallel_flop_threshold();
  if (threshold <= 0 || flops < threshold) {
    fn(0, n);
    return;
  }
  kernel_pool().parallel_for(0, n, kRowGrain,
                             [&fn](std::int64_t begin, std::int64_t end) {
                               fn(begin, end);
                             });
}

inline vf splat(float x) { return vf{} + x; }
inline const vf* vload(const float* p) { return reinterpret_cast<const vf*>(p); }
inline vf* vstore(float* p) { return reinterpret_cast<vf*>(p); }

// The plain product and the fused-transpose product A^T*B share one loop
// nest; they differ only in how the A scalar for (row i, step kk) is
// addressed: stride-1 along a row, or stride-n down a column.
struct NoTransA {
  std::int64_t k;  // row length of A
  std::int64_t index(std::int64_t i, std::int64_t kk) const {
    return i * k + kk;
  }
};
struct TransA {
  std::int64_t n;  // row length of A (A is [k, n], read as columns)
  std::int64_t index(std::int64_t i, std::int64_t kk) const {
    return kk * n + i;
  }
};

// One register tile: RT output rows x (JV * 16) output columns, sweeping
// the full K extent with the C tile held in vf accumulators and written
// back once. `bs` points at the tile's first B column (row stride ldb).
template <int RT, int JV, typename AIndex>
inline void microtile(std::int64_t i, std::int64_t k, const float* a,
                      AIndex ai, const float* bs, std::int64_t ldb, float* c,
                      std::int64_t ldc, std::int64_t j0) {
  vf acc[RT][JV] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    vf bv[JV];
    for (int v = 0; v < JV; ++v) {
      bv[v] = *vload(bs + kk * ldb + kVecWidth * v);
    }
    for (int r = 0; r < RT; ++r) {
      const vf av = splat(a[ai.index(i + r, kk)]);
      for (int v = 0; v < JV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < RT; ++r) {
    for (int v = 0; v < JV; ++v) {
      *vstore(c + (i + r) * ldc + j0 + kVecWidth * v) += acc[r][v];
    }
  }
}

// The narrow tail reads the B scalar feeding output column j at step kk
// through one of these, as microtile reads A through AIndex: a row-major
// [k, ldb] operand, or B^T read in place from a row-major [m, k] operand.
struct RowMajorB {
  const float* b;
  std::int64_t ldb;
  float at(std::int64_t kk, std::int64_t j) const { return b[kk * ldb + j]; }
};
struct TransB {
  const float* b;
  std::int64_t k;  // row length of the [m, k] operand
  float at(std::int64_t kk, std::int64_t j) const { return b[j * k + kk]; }
};

// K steps per packed A strip: 256 x 16 floats = 16 KiB of stack, L1-resident.
constexpr std::int64_t kTailKBlock = 256;

// Output columns [j0, j1) (fewer than 16) of rows [i0, i1), vectorized
// across rows instead of columns. A strip of up to 16 rows of A is packed
// k-major (lane r holds row i + r; lanes past the last row stay zero), and
// each output column gets one accumulator whose lane r is C(i + r, j): it
// starts from C's current value and adds splat(B(kk, j)) * A(i + r, kk) in
// plain k order. That is exactly the per-element sequence of the scalar
// loop `c[i][j] += a[i][kk] * b[kk][j]` (the same FMA contraction per
// clone), so each stored element has the scalar loop's bits. Between
// k-blocks the accumulators round-trip through C, which is exact. Only the
// strip's real rows are stored back.
template <typename AIndex, typename BIndex>
inline void narrow_tail(std::int64_t i0, std::int64_t i1, std::int64_t k,
                        const float* a, AIndex ai, BIndex bi, float* c,
                        std::int64_t ldc, std::int64_t j0, std::int64_t j1) {
  alignas(64) float ap[kTailKBlock * kVecWidth];
  for (std::int64_t i = i0; i < i1; i += kVecWidth) {
    const std::int64_t rows = std::min(kVecWidth, i1 - i);
    for (std::int64_t k0 = 0; k0 < k; k0 += kTailKBlock) {
      const std::int64_t kb = std::min(kTailKBlock, k - k0);
      if (rows < kVecWidth) std::fill(ap, ap + kb * kVecWidth, 0.0f);
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t kk = 0; kk < kb; ++kk) {
          ap[kk * kVecWidth + r] = a[ai.index(i + r, k0 + kk)];
        }
      }
      for (std::int64_t j = j0; j < j1; ++j) {
        vf acc = {};
        for (std::int64_t r = 0; r < rows; ++r) acc[r] = c[(i + r) * ldc + j];
        for (std::int64_t kk = 0; kk < kb; ++kk) {
          acc += splat(bi.at(k0 + kk, j)) * *vload(ap + kk * kVecWidth);
        }
        for (std::int64_t r = 0; r < rows; ++r) c[(i + r) * ldc + j] = acc[r];
      }
    }
  }
}

// Macro kernel: rows [i0, i1) x columns [0, jw) of C, reading B with row
// stride ldb. Full 32-wide tiles, then a 16-wide strip, then the narrow
// tail for the last jw % 16 columns.
template <typename AIndex>
inline void gemm_block(std::int64_t i0, std::int64_t i1, std::int64_t k,
                       const float* a, AIndex ai, const float* b,
                       std::int64_t ldb, float* c, std::int64_t ldc,
                       std::int64_t jw) {
  std::int64_t j = 0;
  for (; j + kColTile <= jw; j += kColTile) {
    std::int64_t i = i0;
    for (; i + kRowTile <= i1; i += kRowTile) {
      microtile<kRowTile, 2>(i, k, a, ai, b + j, ldb, c, ldc, j);
    }
    for (; i < i1; ++i) microtile<1, 2>(i, k, a, ai, b + j, ldb, c, ldc, j);
  }
  for (; j + kVecWidth <= jw; j += kVecWidth) {
    std::int64_t i = i0;
    for (; i + kRowTile <= i1; i += kRowTile) {
      microtile<kRowTile, 1>(i, k, a, ai, b + j, ldb, c, ldc, j);
    }
    for (; i < i1; ++i) microtile<1, 1>(i, k, a, ai, b + j, ldb, c, ldc, j);
  }
  if (j < jw) narrow_tail(i0, i1, k, a, ai, RowMajorB{b, ldb}, c, ldc, j, jw);
}

// Per-chunk entry points. target_clones compiles each body (with the
// templates above flattened in) for AVX-512, AVX2 and baseline x86-64; the
// loader picks the widest clone the CPU supports, so the binary stays
// portable while the hot loops use the full vector width of the machine.
// ThreadSanitizer cannot coexist with the ifunc resolvers target_clones
// emits (they run during relocation, before the TSan runtime initializes,
// and crash at startup), so sanitized builds compile the default ISA only —
// they are correctness artifacts, not perf artifacts.
#if defined(__SANITIZE_THREAD__)
#define CALIBRE_KERNEL_CLONES __attribute__((flatten))
#else
#define CALIBRE_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                               "default"), flatten))
#endif

CALIBRE_KERNEL_CLONES
void gemm_chunk_nn(std::int64_t i0, std::int64_t i1, std::int64_t k,
                   std::int64_t m, const float* a, const float* b, float* c) {
  gemm_block(i0, i1, k, a, NoTransA{k}, b, m, c, m, m);
}

CALIBRE_KERNEL_CLONES
void gemm_chunk_tn(std::int64_t i0, std::int64_t i1, std::int64_t n,
                   std::int64_t k, std::int64_t m, const float* a,
                   const float* b, float* c) {
  gemm_block(i0, i1, k, a, TransA{n}, b, m, c, m, m);
}

// A*B^T: both operands contract along contiguous rows. Below 16 output
// columns there is no microtile to feed, so the narrow tail reads B^T rows
// in place. Otherwise the kernel packs a kColTile-wide panel of B^T at a
// time (k x 32 floats, L1/L2 resident) and reuses the plain microkernel on
// the packed panel. Packing is O(k*m) against O(rows*k*m) compute —
// amortised across the chunk's rows.
CALIBRE_KERNEL_CLONES
void gemm_chunk_nt(std::int64_t i0, std::int64_t i1, std::int64_t k,
                   std::int64_t m, const float* a, const float* b, float* c) {
  if (m < kVecWidth) {
    narrow_tail(i0, i1, k, a, NoTransA{k}, TransB{b, k}, c, m, 0, m);
    return;
  }
  const std::int64_t panel = std::min(kColTile, m);
  std::vector<float> packed(static_cast<std::size_t>(k * panel));
  for (std::int64_t j0 = 0; j0 < m; j0 += kColTile) {
    const std::int64_t jw = std::min(kColTile, m - j0);
    for (std::int64_t jj = 0; jj < jw; ++jj) {
      const float* brow = b + (j0 + jj) * k;
      for (std::int64_t kk = 0; kk < k; ++kk) packed[kk * jw + jj] = brow[kk];
    }
    gemm_block(i0, i1, k, a, NoTransA{k}, packed.data(), jw, c + j0, m, jw);
  }
}

CALIBRE_KERNEL_CLONES
void row_sq_norms_impl(std::int64_t n, std::int64_t k, const float* a,
                       float* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = a + i * k;
    std::int64_t j = 0;
    if (k >= kVecWidth) {
      vf acc = {};
      for (; j + kVecWidth <= k; j += kVecWidth) {
        const vf v = *vload(row + j);
        acc += v * v;
      }
      float total = 0.0f;
      for (std::int64_t lane = 0; lane < kVecWidth; ++lane) total += acc[lane];
      out[i] += total;
    }
    float tail = 0.0f;
    for (; j < k; ++j) tail += row[j] * row[j];
    out[i] += tail;
  }
}

}  // namespace

namespace {

// Runtime override of the parallelism threshold (0 = none; see the setter).
// The bench harness uses it to time the same kernels serial vs parallel in
// one process, which the env-var path (read once into a static) cannot do.
std::atomic<std::int64_t>& threshold_override() {
  static std::atomic<std::int64_t> value{0};
  return value;
}

}  // namespace

void set_parallel_threshold_override(std::int64_t flops) {
  threshold_override().store(flops, std::memory_order_relaxed);
}

std::int64_t parallel_flop_threshold() {
  const std::int64_t forced =
      threshold_override().load(std::memory_order_relaxed);
  if (forced < 0) return -1;  // <= 0 disables parallelism (see caller)
  if (forced > 0) return forced;
  // ~2 MFLOP: a 128x128x64 product. Below this, thread dispatch costs more
  // than the arithmetic saved; per-client batches in the FL loop sit well
  // under it and stay serial.
  static const std::int64_t threshold = []() -> std::int64_t {
    const int env_value = env::get_int("CALIBRE_KERNEL_PAR_FLOPS", 0);
    if (env_value != 0) return env_value;
    return std::int64_t{1} << 21;
  }();
  return threshold;
}

void gemm(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
          const float* b, float* c) {
  for_each_row_chunk(n, 2 * n * k * m,
                     [&](std::int64_t begin, std::int64_t end) {
                       gemm_chunk_nn(begin, end, k, m, a, b, c);
                     });
}

void gemm_tn(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
             const float* b, float* c) {
  for_each_row_chunk(n, 2 * n * k * m,
                     [&](std::int64_t begin, std::int64_t end) {
                       gemm_chunk_tn(begin, end, n, k, m, a, b, c);
                     });
}

void gemm_nt(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
             const float* b, float* c) {
  for_each_row_chunk(n, 2 * n * k * m,
                     [&](std::int64_t begin, std::int64_t end) {
                       gemm_chunk_nt(begin, end, k, m, a, b, c);
                     });
}

void row_sq_norms(std::int64_t n, std::int64_t k, const float* a, float* out) {
  row_sq_norms_impl(n, k, a, out);
}

void sq_dists(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
              const float* a_sq, const float* b, const float* b_sq,
              float* out) {
  // ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y — one GEMM instead of an O(n*m*k)
  // scalar loop. Float cancellation can leave tiny negatives where the true
  // distance is ~0; clamp, since callers treat the result as a distance.
  std::fill(out, out + n * m, 0.0f);
  gemm_nt(n, k, m, a, b, out);
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = out + i * m;
    for (std::int64_t j = 0; j < m; ++j) {
      row[j] = std::max(a_sq[i] + b_sq[j] - 2.0f * row[j], 0.0f);
    }
  }
}

}  // namespace calibre::tensor::kernels

// --- Tensor-level wrappers (declared in tensor.h) ------------------------------

namespace calibre::tensor {

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  CALIBRE_CHECK_EQ(a.cols(), b.cols(),
                   "matmul_nt " << a.shape_string() << " x "
                                << b.shape_string() << "^T");
  Tensor out(a.rows(), b.rows());
  kernels::gemm_nt(a.rows(), a.cols(), b.rows(), a.data(), b.data(),
                   out.data());
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  CALIBRE_CHECK_EQ(a.rows(), b.rows(),
                   "matmul_tn " << a.shape_string() << "^T x "
                                << b.shape_string());
  Tensor out(a.cols(), b.cols());
  kernels::gemm_tn(a.cols(), a.rows(), b.cols(), a.data(), b.data(),
                   out.data());
  return out;
}

Tensor pairwise_sq_dists(const Tensor& a, const Tensor& b) {
  CALIBRE_CHECK_EQ(a.cols(), b.cols(), "pairwise_sq_dists dim mismatch");
  const std::int64_t n = a.rows();
  const std::int64_t m = b.rows();
  const std::int64_t k = a.cols();
  std::vector<float> a_sq(static_cast<std::size_t>(n), 0.0f);
  std::vector<float> b_sq(static_cast<std::size_t>(m), 0.0f);
  kernels::row_sq_norms(n, k, a.data(), a_sq.data());
  kernels::row_sq_norms(m, k, b.data(), b_sq.data());
  Tensor out = Tensor::uninit(n, m);
  kernels::sq_dists(n, k, m, a.data(), a_sq.data(), b.data(), b_sq.data(),
                    out.data());
  return out;
}

}  // namespace calibre::tensor
