// Packed cache-blocked GEMM — the planner's "fat shape" strategy —
// and WeightGemm, which packs a fixed A operand once for many calls.
//
// Classic three-loop blocking (the BLIS/poplibs structure):
//
//   for jc over n in NC columns:                 L2-resident B block
//     for pc over k in KC depth slices:
//       pack B(pc:kc, jc:nc) into NR-wide micro-panels (aligned scratch)
//       parallel_for over MR row panels:         deterministic partition
//         pack A(panel, pc:kc) into an MR-wide micro-panel
//         for each register pass over adjacent B micro-panels:
//           MR x (its panels * NR) register tile over kc,
//           then store (pc == 0) or accumulate (pc > 0) into C
//
// The micro-kernel is the one per-ISA part (tensor/isa.hpp). The base
// tier (scalar C++ left to the compiler's vectorizer) takes one 8-wide
// panel per pass; AVX2 takes up to two (a 4 x 16 tile of ymm
// accumulators) and AVX-512 up to four (4 x 32, zmm). A pass's panels
// are packed interleaved, [kc][panels * NR], at the offset the same
// panels have in the one-panel layout, so the B block's size does not
// change. Every tier computes each C element the same way: per KC
// slice, acc = 0, then acc += A(i, p) * B(p, j) over p in ascending
// order (a multiply, then an add), then C = acc or C += acc.
//
// Determinism: the row partition is by fixed MR panels (independent of
// the thread count), every C element sees its KC slices in ascending pc
// order, and the micro-kernel's accumulation order is a function of the
// plan only — so results are bit-identical across thread-pool sizes
// and across ISA tiers.
//
// Zero-padding contract: the packing routines zero-fill the MR/NR
// tails, so the micro-kernel always runs full tiles; only the valid
// mr x nr region is written back to C.
#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/profiler.hpp"
#include "tensor/isa.hpp"
#include "tensor/matmul.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

#if FLEDA_ISA_X86
#include <immintrin.h>
#endif

namespace fleda {
namespace {

constexpr std::int64_t MR = kGemmMR;
constexpr std::int64_t NR = kGemmNR;

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
// micro-panel whose depth steps lie `ld` floats apart (the width of
// its register pass): dst[p * ld + j] = B(pc + p, j0 + j), zero-padded
// columns.
void pack_b_panel(GemmOp op, const float* b, std::int64_t k, std::int64_t n,
                  std::int64_t pc, std::int64_t kc, std::int64_t j0,
                  std::int64_t nr, std::int64_t ld, float* dst) {
  if (op == GemmOp::kBT) {
    // B stored [n, k]: one contiguous kc run per column.
    for (std::int64_t j = 0; j < nr; ++j) {
      const float* src = b + (j0 + j) * k + pc;
      for (std::int64_t p = 0; p < kc; ++p) dst[p * ld + j] = src[p];
    }
    for (std::int64_t j = nr; j < NR; ++j) {
      for (std::int64_t p = 0; p < kc; ++p) dst[p * ld + j] = 0.0f;
    }
    return;
  }
  // B stored [k, n]: one contiguous NR run per depth step.
  (void)k;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* src = b + (pc + p) * n + j0;
    float* out = dst + p * ld;
    std::int64_t j = 0;
    for (; j < nr; ++j) out[j] = src[j];
    for (; j < NR; ++j) out[j] = 0.0f;
  }
}

// Writes the valid mr x nr region of an MR x width accumulator tile
// into C: stored, or added to what C holds.
inline void store_tile(const float* tile, std::int64_t width, float* c,
                       std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                       bool accumulate) {
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* accrow = tile + r * width;
    if (accumulate) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += accrow[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = accrow[j];
    }
  }
}

// A register pass: C's MR x (panels * NR) tile over one KC slice, from
// the MR-wide A micro-panel `ap` and the pass's packed B `bp`; only
// the valid mr x nr region is written.
using MicroKernel = void (*)(const float* ap, const float* bp,
                             std::int64_t kc, std::int64_t panels, float* c,
                             std::int64_t ldc, std::int64_t mr,
                             std::int64_t nr, bool accumulate);

// Base tier: one panel, MR x NR accumulators, acc += a * b.
void micro_kernel_base(const float* __restrict ap, const float* __restrict bp,
                       std::int64_t kc, std::int64_t /*panels*/,
                       float* __restrict c, std::int64_t ldc, std::int64_t mr,
                       std::int64_t nr, bool accumulate) {
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
  store_tile(acc, NR, c, ldc, mr, nr, accumulate);
}

#if FLEDA_ISA_X86
// AVX2: kVecs panels, one ymm of 8 columns each, per row of the tile.
template <int kVecs>
__attribute__((target("avx2"))) void micro_kernel_avx2(
    const float* __restrict ap, const float* __restrict bp, std::int64_t kc,
    float* __restrict c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
    bool accumulate) {
  constexpr std::int64_t kWidth = kVecs * 8;
  __m256 acc[MR][kVecs];
  for (auto& row : acc) {
    for (__m256& v : row) v = _mm256_setzero_ps();
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    __m256 b[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      b[v] = _mm256_loadu_ps(bp + p * kWidth + 8 * v);
    }
    for (int r = 0; r < MR; ++r) {
      const __m256 a = _mm256_broadcast_ss(ap + p * MR + r);
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(a, b[v]));
      }
    }
  }
  if (mr == MR && nr == kWidth) {
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < kVecs; ++v) {
        float* dst = c + r * ldc + 8 * v;
        _mm256_storeu_ps(dst, accumulate
                                  ? _mm256_add_ps(_mm256_loadu_ps(dst),
                                                  acc[r][v])
                                  : acc[r][v]);
      }
    }
    return;
  }
  alignas(32) float tile[MR * kWidth];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      _mm256_store_ps(tile + r * kWidth + 8 * v, acc[r][v]);
    }
  }
  store_tile(tile, kWidth, c, ldc, mr, nr, accumulate);
}

// AVX-512: kVecs zmm of 16 columns (two panels) each per row.
template <int kVecs>
__attribute__((target("avx512f"))) void micro_kernel_avx512(
    const float* __restrict ap, const float* __restrict bp, std::int64_t kc,
    float* __restrict c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
    bool accumulate) {
  constexpr std::int64_t kWidth = kVecs * 16;
  __m512 acc[MR][kVecs];
  for (auto& row : acc) {
    for (__m512& v : row) v = _mm512_setzero_ps();
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    __m512 b[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      b[v] = _mm512_loadu_ps(bp + p * kWidth + 16 * v);
    }
    for (int r = 0; r < MR; ++r) {
      const __m512 a = _mm512_set1_ps(ap[p * MR + r]);
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(a, b[v]));
      }
    }
  }
  if (mr == MR && nr == kWidth) {
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < kVecs; ++v) {
        float* dst = c + r * ldc + 16 * v;
        _mm512_storeu_ps(dst, accumulate
                                  ? _mm512_add_ps(_mm512_loadu_ps(dst),
                                                  acc[r][v])
                                  : acc[r][v]);
      }
    }
    return;
  }
  alignas(64) float tile[MR * kWidth];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      _mm512_store_ps(tile + r * kWidth + 16 * v, acc[r][v]);
    }
  }
  store_tile(tile, kWidth, c, ldc, mr, nr, accumulate);
}

void micro_kernel_avx2_pass(const float* ap, const float* bp,
                            std::int64_t kc, std::int64_t panels, float* c,
                            std::int64_t ldc, std::int64_t mr,
                            std::int64_t nr, bool accumulate) {
  if (panels == 2) {
    micro_kernel_avx2<2>(ap, bp, kc, c, ldc, mr, nr, accumulate);
  } else {
    micro_kernel_avx2<1>(ap, bp, kc, c, ldc, mr, nr, accumulate);
  }
}

void micro_kernel_avx512_pass(const float* ap, const float* bp,
                              std::int64_t kc, std::int64_t panels, float* c,
                              std::int64_t ldc, std::int64_t mr,
                              std::int64_t nr, bool accumulate) {
  if (panels == 4) {
    micro_kernel_avx512<2>(ap, bp, kc, c, ldc, mr, nr, accumulate);
  } else if (panels == 2) {
    micro_kernel_avx512<1>(ap, bp, kc, c, ldc, mr, nr, accumulate);
  } else {
    micro_kernel_avx2<1>(ap, bp, kc, c, ldc, mr, nr, accumulate);
  }
}
#endif

// The micro-kernel of a tier and the most panels one pass takes.
struct TierKernel {
  MicroKernel run;
  std::int64_t max_panels;
};

TierKernel tier_kernel(IsaTier tier) {
#if FLEDA_ISA_X86
  if (tier == IsaTier::kAvx512) return {micro_kernel_avx512_pass, 4};
  if (tier == IsaTier::kAvx2) return {micro_kernel_avx2_pass, 2};
#endif
  (void)tier;
  return {micro_kernel_base, 1};
}

// Panels of the register pass that starts at panel `first` of a block
// of `npanels`: the largest power of two that fits the rest and the
// tier, so a block runs full passes and then halves.
inline std::int64_t pass_panels(std::int64_t first, std::int64_t npanels,
                                std::int64_t max_panels) {
  std::int64_t panels = max_panels;
  while (panels > npanels - first) panels /= 2;
  return panels;
}

// First panel of the register pass that holds panel jp.
inline std::int64_t pass_start(std::int64_t jp, std::int64_t npanels,
                               std::int64_t max_panels) {
  std::int64_t first = jp / max_panels * max_panels;
  for (;;) {
    const std::int64_t panels = pass_panels(first, npanels, max_panels);
    if (jp < first + panels) return first;
    first += panels;
  }
}

void gemm_packed_impl(IsaTier tier, const GemmPlan& plan, const float* a,
                      const float* apack_full, const float* b, float* c,
                      bool accumulate) {
  const GemmOp op = plan.shape.op;
  const std::int64_t m = plan.shape.m;
  const std::int64_t k = plan.shape.k;
  const std::int64_t n = plan.shape.n;
  const std::int64_t kc_max = plan.kc;
  const std::int64_t nc_max = plan.nc;
  const TierKernel kernel = tier_kernel(tier);

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
              for (std::size_t jq = begin; jq < end; ++jq) {
                const std::int64_t jp = static_cast<std::int64_t>(jq);
                const std::int64_t first =
                    pass_start(jp, npanels, kernel.max_panels);
                const std::int64_t j0 = jc + jp * NR;
                pack_b_panel(
                    op, b, k, n, pc, kc, j0,
                    std::min<std::int64_t>(NR, jc + nc - j0),
                    pass_panels(first, npanels, kernel.max_panels) * NR,
                    bpack + first * kc * NR + (jp - first) * NR);
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
              for (std::int64_t jp = 0, panels = 0; jp < npanels;
                   jp += panels) {
                panels = pass_panels(jp, npanels, kernel.max_panels);
                const std::int64_t j0 = jc + jp * NR;
                kernel.run(ap, bpack + jp * kc * NR, kc, panels,
                           c + i0 * n + j0, n, mr,
                           std::min<std::int64_t>(panels * NR, jc + nc - j0),
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

void gemm_packed(IsaTier tier, const GemmPlan& plan, const float* a,
                 const float* b, float* c, bool accumulate) {
  gemm_packed_impl(tier, plan, a, /*apack_full=*/nullptr, b, c, accumulate);
}

void gemm_packed(const GemmPlan& plan, const float* a, const float* b,
                 float* c, bool accumulate) {
  gemm_packed(host_isa_tier(), plan, a, b, c, accumulate);
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
    gemm_packed_impl(host_isa_tier(), plan_, /*a=*/nullptr, apack_.data(), b,
                     c, accumulate);
    return;
  }
  gemm_band(plan_, a_, b, c, r0, r1, accumulate);
}

}  // namespace fleda
