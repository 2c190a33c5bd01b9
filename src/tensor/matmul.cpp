#include "tensor/matmul.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// Inner kernel: crow[0..n) += sum_{t<4} a_t * b_t[0..n). Processing
// four B rows per pass quarters the store traffic relative to a plain
// saxpy loop, which is what limits throughput on wide rows.
inline void axpy4(float* crow, const float* a4, const float* b0,
                  const float* b1, const float* b2, const float* b3,
                  std::int64_t n) {
  const float a0 = a4[0], a1 = a4[1], a2 = a4[2], a3 = a4[3];
  for (std::int64_t j = 0; j < n; ++j) {
    crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

// No a == 0 shortcut: 0 * NaN must stay NaN. Skipping the row would
// silently drop non-finite values arriving through B, and the planner's
// strategies must agree exactly on which inputs poison the output.
inline void axpy1(float* crow, float a, const float* brow, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) crow[j] += a * brow[j];
}

// The reference kernels on strided operands: `lda` / `ldc` are the
// stored row strides of A and C, so the same loops serve a whole matrix
// and a band of one (gemm_band). The public *_reference kernels pass
// the tight strides.

void nn_reference(const float* a, std::int64_t lda, const float* b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n,
                  bool accumulate) {
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          float* crow = c + i * n;
          if (!accumulate) std::memset(crow, 0, sizeof(float) * n);
          const float* arow = a + static_cast<std::int64_t>(i) * lda;
          std::int64_t p = 0;
          for (; p + 4 <= k; p += 4) {
            axpy4(crow, arow + p, b + p * n, b + (p + 1) * n, b + (p + 2) * n,
                  b + (p + 3) * n, n);
          }
          for (; p < k; ++p) axpy1(crow, arow[p], b + p * n, n);
        }
      },
      /*grain=*/4);
}

void at_reference(const float* a, std::int64_t lda, const float* b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n,
                  bool accumulate) {
  // C[i,j] = sum_p A[p,i] * B[p,j] with A stored [k, lda].
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          float* crow = c + i * n;
          if (!accumulate) std::memset(crow, 0, sizeof(float) * n);
          const float* acol = a + static_cast<std::int64_t>(i);
          std::int64_t p = 0;
          for (; p + 4 <= k; p += 4) {
            const float a4[4] = {acol[p * lda], acol[(p + 1) * lda],
                                 acol[(p + 2) * lda], acol[(p + 3) * lda]};
            axpy4(crow, a4, b + p * n, b + (p + 1) * n, b + (p + 2) * n,
                  b + (p + 3) * n, n);
          }
          for (; p < k; ++p) axpy1(crow, acol[p * lda], b + p * n, n);
        }
      },
      /*grain=*/4);
}

void bt_reference(const float* a, const float* b, float* c, std::int64_t ldc,
                  std::int64_t m, std::int64_t k, std::int64_t n,
                  bool accumulate) {
  // C[i,j] = sum_p A[i,p] * B[j,p]; contiguous dot products with four
  // independent accumulators for instruction-level parallelism.
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const float* arow = a + i * k;
          float* crow = c + static_cast<std::int64_t>(i) * ldc;
          for (std::int64_t j = 0; j < n; ++j) {
            const float* brow = b + j * k;
            float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
            std::int64_t p = 0;
            for (; p + 4 <= k; p += 4) {
              acc0 += arow[p] * brow[p];
              acc1 += arow[p + 1] * brow[p + 1];
              acc2 += arow[p + 2] * brow[p + 2];
              acc3 += arow[p + 3] * brow[p + 3];
            }
            float acc = (acc0 + acc1) + (acc2 + acc3);
            for (; p < k; ++p) acc += arow[p] * brow[p];
            if (accumulate) {
              crow[j] += acc;
            } else {
              crow[j] = acc;
            }
          }
        }
      },
      /*grain=*/4);
}

}  // namespace

void matmul_reference(const float* a, const float* b, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n,
                      bool accumulate) {
  nn_reference(a, k, b, c, m, k, n, accumulate);
}

void matmul_at_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate) {
  at_reference(a, m, b, c, m, k, n, accumulate);
}

void matmul_bt_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate) {
  bt_reference(a, b, c, n, m, k, n, accumulate);
}

std::int64_t lowered_rows(const GemmShape& s) {
  switch (s.op) {
    case GemmOp::kNN:
      return s.k;
    case GemmOp::kAT:
      return s.m;
    case GemmOp::kBT:
      return s.n;
  }
  return 0;
}

std::int64_t lowering_band_rows(const GemmPlan& plan) {
  const GemmShape& s = plan.shape;
  const std::int64_t rows = lowered_rows(s);
  if (plan.strategy == GemmStrategy::kPacked) return rows;
  const std::int64_t row_len = s.op == GemmOp::kBT ? s.k : s.n;
  const std::int64_t fit =
      kLoweringBandFloats / std::max<std::int64_t>(1, row_len);
  return std::min(rows, std::max<std::int64_t>(4, fit / 4 * 4));
}

void gemm_band(const GemmPlan& plan, const float* a, const float* b, float* c,
               std::int64_t r0, std::int64_t r1, bool accumulate) {
  const GemmShape& s = plan.shape;
  if (plan.strategy == GemmStrategy::kPacked) {
    if (r0 != 0 || r1 != lowered_rows(s)) {
      throw std::logic_error("gemm_band: a packed plan runs only the full "
                             "range, not a band of " +
                             plan.to_string());
    }
    gemm_packed(plan, a, b, c, accumulate);
    return;
  }
  switch (s.op) {
    case GemmOp::kNN:
      nn_reference(a + r0, s.k, b, c, s.m, r1 - r0, s.n, accumulate);
      return;
    case GemmOp::kAT:
      at_reference(a + r0, s.m, b, c, r1 - r0, s.k, s.n, accumulate);
      return;
    case GemmOp::kBT:
      bt_reference(a, b, c + r0, s.n, s.m, s.k, r1 - r0, accumulate);
      return;
  }
}

// Planner dispatch: the strategy gemm_plan picks for this shape, run
// over the whole matrix as a single band.

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_band(gemm_plan(GemmOp::kNN, m, k, n), a, b, c, 0, k, accumulate);
}

void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_band(gemm_plan(GemmOp::kAT, m, k, n), a, b, c, 0, m, accumulate);
}

void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_band(gemm_plan(GemmOp::kBT, m, k, n), a, b, c, 0, n, accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) {
    throw std::invalid_argument("matmul: expects rank-2 tensors");
  }
  std::int64_t m = a.shape().dim(0);
  std::int64_t k = a.shape().dim(1);
  if (b.shape().dim(0) != k) {
    throw std::invalid_argument("matmul: inner dimension mismatch " +
                                a.shape().to_string() + " x " +
                                b.shape().to_string());
  }
  std::int64_t n = b.shape().dim(1);
  Tensor c(Shape::of(m, n));
  matmul(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/false);
  return c;
}

}  // namespace fleda
