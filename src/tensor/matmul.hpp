// Threaded dense matrix multiply kernels. Matrices are row-major
// float buffers described by (rows, cols); these are the hot kernels
// behind im2col-based convolution, so they avoid Tensor overhead and
// work on raw pointers.
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

 private:
  GemmPlan plan_;
  const float* a_;
  std::vector<float> apack_;  // A's MR micro-panels (packed plans only)
};

// Tensor convenience wrapper: a is [m,k], b is [k,n], returns [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace fleda
