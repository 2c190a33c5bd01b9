// Threaded dense matrix multiply kernels. Matrices are row-major
// float buffers described by (rows, cols); these are the hot kernels
// behind im2col-based convolution (every conv with more than one
// output channel; tensor/direct_conv.hpp reproduces the reference
// kernels for the single-output heads without lowering), so they
// avoid Tensor overhead and work on raw pointers.
//
// The public matmul / matmul_at / matmul_bt entry points and
// WeightGemm run the plan gemm_plan() computes for their shape
// (tensor/plan.hpp): skinny shapes run the historical axpy kernels, fat
// shapes run the packed cache-blocked GEMM. The *_reference variants
// are the historical kernels verbatim — the planner's baseline
// strategy, also exposed for equivalence tests and the micro_kernels
// bench.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/plan.hpp"
#include "tensor/tensor.hpp"

namespace fleda {

// C[m,n] = A[m,k] * B[k,n].  If accumulate is true, adds into C
// instead of overwriting.
void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, bool accumulate = false);

// C[m,n] = A^T[m,k] * B[k,n] where A is stored as [k,m].
void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate = false);

// C[m,n] = A[m,k] * B^T[k,n] where B is stored as [n,k].
void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate = false);

// The historical unblocked kernels, bypassing the planner.
void matmul_reference(const float* a, const float* b, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n,
                      bool accumulate = false);
void matmul_at_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate = false);
void matmul_bt_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate = false);

// Banded GEMMs for convolution lowering. In each op one operand is
// the lowered (im2col) matrix, row-major [rows, cols]: kNN's B [k, n],
// kAT's C [m, n] and kBT's B stored [n, k]. A band is its row range
// [r0, r1), held contiguously in an (r1 - r0)-row buffer, so a layer
// can lower and consume one cache-resident band at a time:
//   kNN: c[m, n]    (+)= A[:, r0:r1) * band      (a slice of the depth)
//   kAT: band       (+)= A[:, r0:r1)^T * b       (rows of C)
//   kBT: c[:, r0:r1) (+)= A * band^T             (columns of C)
// Under a reference plan each output float sees the operations of the
// full GEMM in the same order, provided every band but the last is a
// multiple of 4 rows (the axpy4 grouping of the reference k loop) and
// the kNN bands after the first accumulate. A packed plan's summation
// order depends on its whole shape, so it runs only the full range.

// Floats per band that keep the band in L1 (32 KB) while it is lowered
// and consumed.
inline constexpr std::int64_t kLoweringBandFloats = 8192;

// Rows of `shape`'s lowered operand: k for kNN, m for kAT, n for kBT.
std::int64_t lowered_rows(const GemmShape& shape);

// Rows per band for `plan`: all of them under a packed plan; otherwise
// the largest multiple of 4 whose band fits kLoweringBandFloats (at
// least 4, at most all rows). Two reference plans over the same
// lowered matrix get the same height.
std::int64_t lowering_band_rows(const GemmPlan& plan);

// Runs the band [r0, r1) of `plan`'s GEMM as described above, on the
// reference kernel of its op or, for the full range only, the packed
// GEMM.
void gemm_band(const GemmPlan& plan, const float* a, const float* b, float* c,
               std::int64_t r0, std::int64_t r1, bool accumulate);

// C = op(A) * B for an A operand that stays fixed across many calls —
// a layer weight shared by every sample of a step. Under a packed plan
// the constructor packs A once and every run() reads the shared panels;
// under a reference plan run() calls the matching *_reference kernel.
// run() is const and safe to call concurrently from batch-parallel
// workers. `a` must stay alive and unchanged while the WeightGemm is.
class WeightGemm {
 public:
  // `plan` is normally gemm_plan(op, m, k, n) for the layer's shape.
  WeightGemm(const GemmPlan& plan, const float* a);

  // c[m,n] = op(A) * b, overwriting c; b's layout follows the plan's op.
  void run(const float* b, float* c) const;

  // gemm_band on the fixed A: the band [r0, r1) of the lowered
  // operand. run() is the full range without accumulation.
  void run_band(std::int64_t r0, std::int64_t r1, const float* b, float* c,
                bool accumulate) const;

  const GemmPlan& plan() const { return plan_; }

 private:
  GemmPlan plan_;
  const float* a_;
  std::vector<float> apack_;  // A's MR micro-panels (packed plans only)
};

// Tensor convenience wrapper: a is [m,k], b is [k,n], returns [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace fleda
