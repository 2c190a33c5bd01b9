// Shape-keyed kernel planning for the dense GEMM family.
//
// Every matmul / matmul_at / matmul_bt call and every WeightGemm asks
// gemm_plan() for the plan of its (op, m, k, n) shape. A small cost
// model (shape vs the L1/L2 working sets) decides between the
// historical axpy kernels ("reference" — best for skinny shapes) and a
// packed cache-blocked GEMM ("packed" — B panels packed into aligned
// scratch, a register-tiled MR x NR micro-kernel, and MC/KC/NC cache
// blocking). The plan is computed on every call: it is a pure function
// of the shape that costs about a dozen integer operations, so there is
// nothing worth caching.
//
// Determinism contract: a plan is a pure function of the shape (never
// of the thread-pool size), the packed kernel partitions rows into
// fixed MR panels, and every C element accumulates its KC blocks in
// ascending order — so results are bit-identical across thread-pool
// sizes, exactly like the reference kernels. Packed and reference
// *summation orders* differ, so the two strategies agree only to
// floating-point tolerance; FLEDA_PLAN=reference forces the historical
// kernels everywhere when bit-compatibility with old runs matters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace fleda {

// Which logical GEMM a plan serves. The operand layout is implied:
//   kNN: C[m,n] = A[m,k]   * B[k,n]    (A row-major [m,k], B [k,n])
//   kAT: C[m,n] = A^T      * B[k,n]    (A stored [k,m],    B [k,n])
//   kBT: C[m,n] = A[m,k]   * B^T       (A row-major [m,k], B stored [n,k])
enum class GemmOp : std::uint8_t { kNN = 0, kAT = 1, kBT = 2 };
const char* to_string(GemmOp op);

enum class GemmStrategy : std::uint8_t { kReference = 0, kPacked = 1 };
const char* to_string(GemmStrategy strategy);

// FLEDA_PLAN=reference forces the historical kernels for every shape;
// FLEDA_PLAN=auto (the default) lets the cost model choose. The
// variable is read before main, so a bad value stops the process on
// the main thread with parse_plan_mode's message.
enum class PlanMode : std::uint8_t { kAuto = 0, kReference = 1 };
PlanMode plan_mode();
void set_plan_mode(PlanMode mode);  // overrides the environment

// "auto" or "reference"; any other value, the empty string included,
// throws std::invalid_argument naming the value and both accepted ones.
PlanMode parse_plan_mode(std::string_view value);

// Register micro-tile of the packed kernel: MR rows x NR columns of C
// held in accumulators across a whole KC block.
inline constexpr std::int64_t kGemmMR = 4;
inline constexpr std::int64_t kGemmNR = 8;

struct GemmShape {
  GemmOp op = GemmOp::kNN;
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
};

struct GemmPlan {
  GemmShape shape;
  GemmStrategy strategy = GemmStrategy::kReference;
  // Cache blocking (packed strategy only). mc/nc are MR/NR multiples;
  // kc is the unrolled depth of one packed panel pass.
  std::int64_t mc = 0;
  std::int64_t kc = 0;
  std::int64_t nc = 0;
  double flops = 0.0;  // 2*m*k*n, for bench reporting

  std::string to_string() const;
};

// The cost model: pure function of shape (and compile-time cache-size
// constants), never of thread count or environment. Exposed so tests
// and benches can force strategies regardless of the plan mode.
GemmPlan make_gemm_plan(GemmOp op, std::int64_t m, std::int64_t k,
                        std::int64_t n);

// The plan a GEMM of this shape runs under the current PlanMode: a
// reference plan in kReference mode, make_gemm_plan otherwise.
GemmPlan gemm_plan(GemmOp op, std::int64_t m, std::int64_t k,
                   std::int64_t n);

// C = op(A) * B (+C when accumulate) under a packed `plan`, on the
// layouts implied by plan.shape.op (gemm_packed.cpp). Packs B panels
// into the calling thread's aligned scratch and A micro-panels on the
// fly.
void gemm_packed(const GemmPlan& plan, const float* a, const float* b,
                 float* c, bool accumulate);

}  // namespace fleda
