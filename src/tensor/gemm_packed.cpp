// Packed cache-blocked GEMM — the planner's "fat shape" strategy —
// and WeightGemm, which packs a fixed A operand once for many calls.
//
// Classic three-loop blocking (the BLIS/poplibs structure, scalar C++
// left to the compiler's vectorizer):
//
//   for jc over n in NC columns:                 L2-resident B block
//     for pc over k in KC depth slices:
//       pack B(pc:kc, jc:nc) into NR-wide micro-panels (aligned scratch)
//       parallel_for over MR row panels:         deterministic partition
//         pack A(panel, pc:kc) into an MR-wide micro-panel
//         for each B micro-panel: MR x NR register tile over kc,
//           then store (pc == 0) or accumulate (pc > 0) into C
//
// Determinism: the row partition is by fixed MR panels (independent of
// the thread count), every C element sees its KC slices in ascending pc
// order, and the micro-kernel's accumulation order is a function of the
// plan only — so results are bit-identical across thread-pool sizes.
//
// Zero-padding contract: the packing routines zero-fill the MR/NR
// tails, so the micro-kernel always runs full tiles; only the valid
// mr x nr region is written back to C.
#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/profiler.hpp"
#include "tensor/matmul.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

constexpr std::int64_t MR = kGemmMR;
constexpr std::int64_t NR = kGemmNR;

// A(i, p) under the plan's A layout.
inline std::int64_t a_index(GemmOp op, std::int64_t m, std::int64_t k,
                            std::int64_t i, std::int64_t p) {
  return op == GemmOp::kAT ? p * m + i : i * k + p;
}

// Packs A rows [i0, i0 + mr) x depth [pc, pc + kc) into an MR-wide
// micro-panel: dst[p * MR + r] = A(i0 + r, pc + p), zero-padded rows.
void pack_a_panel(GemmOp op, const float* a, std::int64_t m, std::int64_t k,
                  std::int64_t i0, std::int64_t mr, std::int64_t pc,
                  std::int64_t kc, float* dst) {
  if (op == GemmOp::kAT) {
    // A stored [k, m]: one contiguous MR run per depth step.
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = a + (pc + p) * m + i0;
      float* out = dst + p * MR;
      std::int64_t r = 0;
      for (; r < mr; ++r) out[r] = src[r];
      for (; r < MR; ++r) out[r] = 0.0f;
    }
    return;
  }
  // A stored [m, k]: one contiguous kc run per row.
  for (std::int64_t r = 0; r < mr; ++r) {
    const float* src = a + (i0 + r) * k + pc;
    for (std::int64_t p = 0; p < kc; ++p) dst[p * MR + r] = src[p];
  }
  for (std::int64_t r = mr; r < MR; ++r) {
    for (std::int64_t p = 0; p < kc; ++p) dst[p * MR + r] = 0.0f;
  }
}

// Packs B depth [pc, pc + kc) x columns [j0, j0 + nr) into an NR-wide
// micro-panel: dst[p * NR + j] = B(pc + p, j0 + j), zero-padded cols.
void pack_b_panel(GemmOp op, const float* b, std::int64_t k, std::int64_t n,
                  std::int64_t pc, std::int64_t kc, std::int64_t j0,
                  std::int64_t nr, float* dst) {
  if (op == GemmOp::kBT) {
    // B stored [n, k]: one contiguous kc run per column.
    for (std::int64_t j = 0; j < nr; ++j) {
      const float* src = b + (j0 + j) * k + pc;
      for (std::int64_t p = 0; p < kc; ++p) dst[p * NR + j] = src[p];
    }
    for (std::int64_t j = nr; j < NR; ++j) {
      for (std::int64_t p = 0; p < kc; ++p) dst[p * NR + j] = 0.0f;
    }
    return;
  }
  // B stored [k, n]: one contiguous NR run per depth step.
  (void)k;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* src = b + (pc + p) * n + j0;
    float* out = dst + p * NR;
    std::int64_t j = 0;
    for (; j < nr; ++j) out[j] = src[j];
    for (; j < NR; ++j) out[j] = 0.0f;
  }
}

// MR x NR register tile: acc += sum_p apanel[p][*] (x) bpanel[p][*],
// then stored or accumulated into the valid mr x nr region of C.
inline void micro_kernel(const float* __restrict ap,
                         const float* __restrict bp, std::int64_t kc,
                         float* __restrict c, std::int64_t ldc,
                         std::int64_t mr, std::int64_t nr, bool accumulate) {
  float acc[MR * NR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict arow = ap + p * MR;
    const float* __restrict brow = bp + p * NR;
    for (std::int64_t r = 0; r < MR; ++r) {
      const float av = arow[r];
      float* __restrict accrow = acc + r * NR;
      for (std::int64_t j = 0; j < NR; ++j) accrow[j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* accrow = acc + r * NR;
    if (accumulate) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += accrow[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = accrow[j];
    }
  }
}

void gemm_packed_impl(const GemmPlan& plan, const float* a,
                      const float* apack_full, const float* b, float* c,
                      bool accumulate) {
  const GemmOp op = plan.shape.op;
  const std::int64_t m = plan.shape.m;
  const std::int64_t k = plan.shape.k;
  const std::int64_t n = plan.shape.n;
  const std::int64_t kc_max = plan.kc;
  const std::int64_t nc_max = plan.nc;

  // Shared packed-B block: panels are written disjointly by the packing
  // parallel_for and read-only during compute, all through the calling
  // thread's persistent aligned scratch.
  const std::size_t bpack_elems = static_cast<std::size_t>(
      ((nc_max + NR - 1) / NR) * NR * kc_max);
  float* bpack = thread_scratch_aligned(ScratchSlot::kPackB, bpack_elems);

  const std::int64_t mpanels = (m + MR - 1) / MR;
  const std::size_t mc_grain =
      static_cast<std::size_t>(std::max<std::int64_t>(1, plan.mc / MR));

  for (std::int64_t jc = 0; jc < n; jc += nc_max) {
    const std::int64_t nc = std::min(nc_max, n - jc);
    const std::int64_t npanels = (nc + NR - 1) / NR;
    for (std::int64_t pc = 0; pc < k; pc += kc_max) {
      const std::int64_t kc = std::min(kc_max, k - pc);
      {
        ProfileScope pack(phase::kKernelPack);
        parallel_for(
            static_cast<std::size_t>(npanels),
            [&](std::size_t begin, std::size_t end) {
              for (std::size_t jp = begin; jp < end; ++jp) {
                const std::int64_t j0 =
                    jc + static_cast<std::int64_t>(jp) * NR;
                pack_b_panel(op, b, k, n, pc, kc, j0,
                             std::min<std::int64_t>(NR, jc + nc - j0),
                             bpack + static_cast<std::int64_t>(jp) * kc * NR);
              }
            },
            /*grain=*/4);
      }
      const bool acc_c = accumulate || pc > 0;
      parallel_for(
          static_cast<std::size_t>(mpanels),
          [&](std::size_t begin, std::size_t end) {
            float* apanel = thread_scratch_aligned(
                ScratchSlot::kPackA, static_cast<std::size_t>(kc_max * MR));
            for (std::size_t ip = begin; ip < end; ++ip) {
              const std::int64_t i0 = static_cast<std::int64_t>(ip) * MR;
              const std::int64_t mr = std::min<std::int64_t>(MR, m - i0);
              const float* ap;
              if (apack_full != nullptr) {
                ap = apack_full + static_cast<std::int64_t>(ip) * k * MR +
                     pc * MR;
              } else {
                pack_a_panel(op, a, m, k, i0, mr, pc, kc, apanel);
                ap = apanel;
              }
              for (std::int64_t jp = 0; jp < npanels; ++jp) {
                const std::int64_t j0 = jc + jp * NR;
                micro_kernel(ap, bpack + jp * kc * NR, kc, c + i0 * n + j0,
                             n, mr, std::min<std::int64_t>(NR, jc + nc - j0),
                             acc_c);
              }
            }
          },
          mc_grain);
    }
  }
}

// Packs the whole A operand (all of k) into zero-padded MR
// micro-panels, the layout gemm_packed_impl reads through apack_full.
std::vector<float> pack_a(const GemmPlan& plan, const float* a) {
  const std::int64_t m = plan.shape.m;
  const std::int64_t k = plan.shape.k;
  const std::int64_t mpanels = (m + MR - 1) / MR;
  std::vector<float> apack(static_cast<std::size_t>(mpanels * k * MR));
  ProfileScope pack(phase::kKernelPack);
  parallel_for(
      static_cast<std::size_t>(mpanels),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t ip = begin; ip < end; ++ip) {
          const std::int64_t i0 = static_cast<std::int64_t>(ip) * MR;
          pack_a_panel(plan.shape.op, a, m, k, i0,
                       std::min<std::int64_t>(MR, m - i0), 0, k,
                       apack.data() + static_cast<std::int64_t>(ip) * k * MR);
        }
      },
      /*grain=*/4);
  return apack;
}

}  // namespace

void gemm_packed(const GemmPlan& plan, const float* a, const float* b,
                 float* c, bool accumulate) {
  gemm_packed_impl(plan, a, /*apack_full=*/nullptr, b, c, accumulate);
}

WeightGemm::WeightGemm(const GemmPlan& plan, const float* a)
    : plan_(plan), a_(a) {
  if (plan_.strategy == GemmStrategy::kPacked) apack_ = pack_a(plan_, a_);
}

void WeightGemm::run(const float* b, float* c) const {
  run_band(0, lowered_rows(plan_.shape), b, c, /*accumulate=*/false);
}

void WeightGemm::run_band(std::int64_t r0, std::int64_t r1, const float* b,
                          float* c, bool accumulate) const {
  // A packed plan runs only the full range (gemm_band says why), here
  // on the panels packed once at construction.
  if (plan_.strategy == GemmStrategy::kPacked && r0 == 0 &&
      r1 == lowered_rows(plan_.shape)) {
    gemm_packed_impl(plan_, /*a=*/nullptr, apack_.data(), b, c, accumulate);
    return;
  }
  gemm_band(plan_, a_, b, c, r0, r1, accumulate);
}

}  // namespace fleda
