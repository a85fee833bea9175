// Tensor kernel layer: cache-blocked, vectorization-friendly SGEMM (plus
// fused-transpose variants) and a GEMM-based pairwise squared distance,
// with optional row-partitioned multithreading.
//
// Every tensor primitive on a training hot path funnels through this file:
// encoder forward/backward (matmul + its backward products), NT-Xent's B×B
// similarity matrix, and the KMeans / prototype / divergence / t-SNE
// distance computations. The kernels operate on raw row-major contiguous
// storage; the Tensor-level wrappers (tensor::matmul, tensor::matmul_nt,
// tensor::matmul_tn, tensor::pairwise_sq_dists) validate shapes and
// allocate outputs.
//
// Blocking scheme (see DESIGN.md "Kernel layer"):
//  * gemm / gemm_tn: the output is walked in register tiles of
//    kRowTile x kColTile (8 x 32); for each tile the full K dimension is
//    swept with the C tile held in SIMD accumulator registers and written
//    back exactly once, while B streams 32 contiguous floats per step and A
//    contributes one broadcast scalar per row. The microkernel is written
//    with GCC vector extensions and compiled via target_clones for
//    AVX-512 / AVX2 / baseline x86-64 — the loader picks the widest clone
//    the CPU supports, so the binary stays portable.
//  * narrow tail: the last m % 16 output columns (all of them when m < 16:
//    Calibre's k = 10 prototypes, the m = 1 k-means++ seeding column) are
//    vectorized across rows instead. A strip of up to 16 rows of A is
//    packed k-major into a stack buffer (k-blocks of 256), and each output
//    column keeps one 16-lane accumulator, lane r = C(i+r, j), that starts
//    from C's current value and adds splat(B(kk, j)) * A(i+r, kk) in plain
//    k order. That is the scalar loop c[i][j] += a[i][kk] * b[kk][j]
//    element for element, with the same FMA contraction per clone, so the
//    tail's bits equal the scalar loop's (and, from a zero C, the
//    microtile's). B is read through an index functor, as A is.
//  * gemm_nt: both operands contract along contiguous rows, so the kernel
//    packs one kColTile-wide panel of B^T at a time (k x 32 floats,
//    cache-resident; O(k*m) packing against O(n*k*m) compute) and reuses
//    the plain microkernel on the packed panel. Below 16 output columns
//    there is no microtile to feed: the narrow tail reads B^T rows in place
//    and nothing is packed or allocated.
//  * sq_dists / pairwise_sq_dists: the ||a||^2 + ||b||^2 - 2 a.b^T
//    decomposition; the cross term is a gemm_nt, the norms are single
//    vectorized passes, and the combine clamps tiny negative float residue
//    to zero.
//
// Parallelism: kernels whose flop count exceeds parallel_flop_threshold()
// are row-partitioned over a process-wide ThreadPool via parallel_for.
// Partitioning is by output row, so results are bitwise identical for any
// thread count. Small per-client batches stay on the calling thread and pay
// no dispatch overhead.
//
// Determinism: every run on the same machine produces identical results
// (the clone choice and the accumulation order are fixed per CPU). Across
// machines with different vector widths the accumulation order — and hence
// float rounding — may differ, like any vectorized BLAS.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace calibre::tensor::kernels {

// Flop count (2*n*k*m) above which a GEMM is partitioned across the kernel
// thread pool. Overridable through the CALIBRE_KERNEL_PAR_FLOPS environment
// variable; values <= 0 disable kernel parallelism entirely.
std::int64_t parallel_flop_threshold();

// Runtime override of the threshold (takes precedence over the env var):
// 0 restores the default, negative forces serial execution, positive sets
// the threshold directly. Used by the bench harness to time the same kernel
// serial and parallel within one process.
void set_parallel_threshold_override(std::int64_t flops);

// Raw row-major kernels. Output `c` accumulates: callers must pass
// zero-initialised (or partial-result) storage. All pointers reference
// dense row-major buffers; `c` must not alias `a` or `b`.

// c[n,m] += a[n,k] * b[k,m]
void gemm(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
          const float* b, float* c);

// c[n,m] += a[n,k] * b[m,k]^T  (fused transpose: b stays row-major [m,k])
void gemm_nt(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
             const float* b, float* c);

// c[n,m] += a[k,n]^T * b[k,m]  (fused transpose: a stays row-major [k,n])
void gemm_tn(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
             const float* b, float* c);

// out[i] += sum_j a[i,j]^2 for each of the n rows of a[n,k].
void row_sq_norms(std::int64_t n, std::int64_t k, const float* a, float* out);

// out[i,j] = max(a_sq[i] + b_sq[j] - 2 a[i,:].b[j,:], 0) for a[n,k] and
// b[m,k], given their squared row norms (row_sq_norms). `out` [n,m] is
// overwritten. tensor::pairwise_sq_dists and the KMeans workspace both
// compute their distances here, so they agree bit for bit.
void sq_dists(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
              const float* a_sq, const float* b, const float* b_sq,
              float* out);

// --- naive references --------------------------------------------------------
// The seed's scalar implementations, kept verbatim as the golden reference
// for the kernel-parity tests and as the baseline the bench suite reports
// speedups against. Not for production call sites.
Tensor matmul_naive(const Tensor& a, const Tensor& b);
Tensor pairwise_sq_dists_naive(const Tensor& a, const Tensor& b);

}  // namespace calibre::tensor::kernels
