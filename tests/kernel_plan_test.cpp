// Tests for the shape-keyed kernel planner: the packed cache-blocked
// GEMM must agree with the reference kernels to float tolerance over a
// shape sweep (including the degenerate and tail shapes the packing
// zero-pads), the auto plan must be bit-identical across thread-pool
// sizes, WeightGemm must run exactly the kernel its plan names (also
// from concurrent batch workers), the conv layers' banded lowering and
// Conv2d's direct Cout == 1 kernels must match a whole-matrix lowering
// bit for bit, every GEMM of a model head with one output channel must
// plan reference kernels (what the direct kernels reproduce), and
// FLEDA_PLAN must accept only "auto" and "reference", the latter making
// a full training step use the historical kernels. Every ISA tier the
// host runs (tensor/isa.hpp) must give the packed GEMM and the direct
// Cout == 1 kernels the same bits as a scalar oracle of their order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/flnet.hpp"
#include "models/registry.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "phys/features.hpp"
#include "tensor/direct_conv.hpp"
#include "tensor/im2col.hpp"
#include "tensor/isa.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// Restores the previous mode even when a test body throws.
struct PlanModeGuard {
  explicit PlanModeGuard(PlanMode mode) : previous(plan_mode()) {
    set_plan_mode(mode);
  }
  ~PlanModeGuard() { set_plan_mode(previous); }
  PlanMode previous;
};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// The reference kernels double as the oracle: their agreement with a
// naive triple loop is already covered by tensor_test.
void run_reference(GemmOp op, const float* a, const float* b, float* c,
                   std::int64_t m, std::int64_t k, std::int64_t n,
                   bool accumulate) {
  switch (op) {
    case GemmOp::kNN:
      matmul_reference(a, b, c, m, k, n, accumulate);
      return;
    case GemmOp::kAT:
      matmul_at_reference(a, b, c, m, k, n, accumulate);
      return;
    case GemmOp::kBT:
      matmul_bt_reference(a, b, c, m, k, n, accumulate);
      return;
  }
}

// A packed plan for any shape, bypassing the cost model so the sweep
// can push degenerate shapes (m=1, n=1, k<4 tails) through the packed
// path that the planner would normally route to reference.
GemmPlan forced_packed_plan(GemmOp op, std::int64_t m, std::int64_t k,
                            std::int64_t n) {
  GemmPlan plan = make_gemm_plan(op, m, k, n);
  if (plan.strategy == GemmStrategy::kPacked) return plan;
  plan.strategy = GemmStrategy::kPacked;
  plan.kc = std::min<std::int64_t>(k, 64);
  plan.nc = std::min<std::int64_t>((n + kGemmNR - 1) / kGemmNR * kGemmNR,
                                   8 * kGemmNR);
  plan.mc = std::min<std::int64_t>((m + kGemmMR - 1) / kGemmMR * kGemmMR, 96);
  return plan;
}

// A reference plan for any shape, whatever the cost model would pick.
GemmPlan forced_reference_plan(GemmOp op, std::int64_t m, std::int64_t k,
                               std::int64_t n) {
  GemmPlan plan = make_gemm_plan(op, m, k, n);
  plan.strategy = GemmStrategy::kReference;
  return plan;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

TEST(GemmPacked, MatchesReferenceOverShapeSweep) {
  // Odd sizes, k<4 tails, single-row/column degenerates, and fat
  // shapes the cost model itself would pack.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 7, 33},   {5, 3, 17},  {4, 16, 16},  {7, 81, 19},
                {64, 162, 64}, {33, 65, 47}, {13, 2, 130}, {96, 100, 1},
                {1, 5184, 64}, {50, 486, 256}};
  Rng rng(7);
  for (GemmOp op : {GemmOp::kNN, GemmOp::kAT, GemmOp::kBT}) {
    for (const auto& s : shapes) {
      for (bool accumulate : {false, true}) {
        std::vector<float> a =
            random_vec(static_cast<std::size_t>(s.m * s.k), rng);
        std::vector<float> b =
            random_vec(static_cast<std::size_t>(s.k * s.n), rng);
        std::vector<float> seed =
            random_vec(static_cast<std::size_t>(s.m * s.n), rng);
        std::vector<float> want = seed;
        std::vector<float> got = seed;
        run_reference(op, a.data(), b.data(), want.data(), s.m, s.k, s.n,
                      accumulate);
        const GemmPlan plan = forced_packed_plan(op, s.m, s.k, s.n);
        gemm_packed(plan, a.data(), b.data(), got.data(), accumulate);
        // Summation-order error grows ~sqrt(k) for fp32 dot products of
        // unit-scale values; 1e-5 is the per-accumulation budget.
        const float tolerance =
            1e-5f * std::max(1.0f, std::sqrt(static_cast<float>(s.k)));
        EXPECT_LE(max_abs_diff(want, got), tolerance)
            << plan.to_string() << " accumulate=" << accumulate;
      }
    }
  }
}

// The packed GEMM's order written out scalar: per KC slice in
// ascending order, acc = 0, acc += A(i, p) * B(p, j) over the slice,
// then C = acc (first slice, not accumulating) or C += acc.
void packed_order_oracle(const GemmPlan& plan, const float* a, const float* b,
                         float* c, bool accumulate) {
  const GemmShape& s = plan.shape;
  for (std::int64_t i = 0; i < s.m; ++i) {
    for (std::int64_t j = 0; j < s.n; ++j) {
      float& out = c[i * s.n + j];
      for (std::int64_t pc = 0; pc < s.k; pc += plan.kc) {
        float acc = 0.0f;
        for (std::int64_t p = pc; p < std::min(s.k, pc + plan.kc); ++p) {
          const float av = s.op == GemmOp::kAT ? a[p * s.m + i] : a[i * s.k + p];
          const float bv = s.op == GemmOp::kBT ? b[j * s.k + p] : b[p * s.n + j];
          acc += av * bv;
        }
        out = pc == 0 && !accumulate ? acc : out + acc;
      }
    }
  }
}

// Index of the first float whose bits differ, or -1. Two NaNs count as
// equal: x86 returns the first operand's NaN from a sum of two NaNs,
// and the compiler may commute an addition (tensor/isa.hpp).
std::int64_t first_bit_mismatch(const float* want, const float* got,
                                std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    if (std::memcmp(want + i, got + i, sizeof(float)) != 0) return i;
  }
  return -1;
}

// Every ISA tier this host runs, kBase first.
std::vector<IsaTier> runnable_tiers() {
  std::vector<IsaTier> tiers;
  for (IsaTier t : {IsaTier::kBase, IsaTier::kAvx2, IsaTier::kAvx512}) {
    if (t <= host_isa_tier()) tiers.push_back(t);
  }
  return tiers;
}

// Overwrites a few entries with NaN, +Inf and -Inf.
void poison(std::vector<float>& v, Rng& rng) {
  const float specials[] = {std::nanf(""), INFINITY, -INFINITY};
  for (float special : specials) {
    v[static_cast<std::size_t>(rng.uniform_int(v.size()))] = special;
  }
}

TEST(GemmPacked, EveryIsaTierMatchesThePackedOrderBitwise) {
  // Seeded shapes with m % 4 and n % 8 tails, blocks of 3, 5 and 7
  // panels (odd counts split the multi-panel passes into halves),
  // several KC slices and NC blocks, with and without accumulation,
  // and NaN / +-Inf in A and in B.
  struct Case {
    std::int64_t m, k, n, kc, nc;
  };
  std::vector<Case> cases = {{4, 8, 8, 8, 8},       {13, 50, 56, 16, 56},
                             {9, 40, 24, 40, 24},   {7, 33, 40, 8, 40},
                             {16, 64, 130, 24, 64}, {1, 5, 1, 2, 8},
                             {37, 100, 101, 48, 72}};
  Rng shapes(29);
  for (int i = 0; i < 8; ++i) {
    const std::int64_t k = 1 + static_cast<std::int64_t>(shapes.uniform_int(90));
    cases.push_back({1 + static_cast<std::int64_t>(shapes.uniform_int(40)), k,
                     1 + static_cast<std::int64_t>(shapes.uniform_int(150)),
                     1 + static_cast<std::int64_t>(shapes.uniform_int(
                             static_cast<std::uint64_t>(k))),
                     kGemmNR * (1 + static_cast<std::int64_t>(
                                        shapes.uniform_int(9)))});
  }
  Rng rng(17);
  for (GemmOp op : {GemmOp::kNN, GemmOp::kAT, GemmOp::kBT}) {
    for (const Case& cs : cases) {
      for (bool accumulate : {false, true}) {
        for (bool poisoned : {false, true}) {
          GemmPlan plan = forced_packed_plan(op, cs.m, cs.k, cs.n);
          plan.kc = cs.kc;
          plan.nc = cs.nc;
          std::vector<float> a =
              random_vec(static_cast<std::size_t>(cs.m * cs.k), rng);
          std::vector<float> b =
              random_vec(static_cast<std::size_t>(cs.k * cs.n), rng);
          if (poisoned) {
            poison(a, rng);
            poison(b, rng);
          }
          const std::vector<float> seed =
              random_vec(static_cast<std::size_t>(cs.m * cs.n), rng);
          std::vector<float> want = seed;
          packed_order_oracle(plan, a.data(), b.data(), want.data(),
                              accumulate);
          for (IsaTier tier : runnable_tiers()) {
            std::vector<float> got = seed;
            gemm_packed(tier, plan, a.data(), b.data(), got.data(),
                        accumulate);
            EXPECT_EQ(first_bit_mismatch(want.data(), got.data(),
                                         cs.m * cs.n),
                      -1)
                << to_string(tier) << " " << plan.to_string()
                << " accumulate=" << accumulate << " poisoned=" << poisoned;
          }
        }
      }
    }
  }
}

TEST(SingleOutputConv, EveryIsaTierMatchesTheWholeMatrixLoweringBitwise) {
  // Forward, dW (+= into a nonzero dw) and dx of a Cout == 1 conv
  // against one full im2col matrix and the reference kernels, per tier.
  // OW = 16 and 32 take 16-pixel AVX-512 groups, OW = 8 the 8-pixel
  // AVX2 ones, and the wide tiers gather dx there; OW = 12 runs the
  // base kernels; OW = 9 and the strided, dilated case gather their
  // loads through the pixel offsets. Poisoned inputs put NaN and +-Inf
  // in the image and in dy; a poisoned weight (+Inf) makes its channel
  // scatter dx while the others gather.
  struct Case {
    std::int64_t c, h, w, kernel, stride, dilation;
  };
  const Case cases[] = {{3, 16, 16, 9, 1, 1}, {5, 8, 8, 9, 1, 1},
                        {4, 32, 32, 5, 1, 1}, {2, 16, 16, 3, 1, 2},
                        {3, 12, 12, 3, 1, 1}, {2, 7, 9, 5, 1, 1},
                        {4, 23, 21, 5, 2, 2}};
  enum class Poison { kNone, kData, kWeight };
  Rng rng(41);
  for (const Case& cs : cases) {
    for (Poison poisoned : {Poison::kNone, Poison::kData, Poison::kWeight}) {
      ConvGeometry g;
      g.channels = cs.c;
      g.height = cs.h;
      g.width = cs.w;
      g.kernel_h = g.kernel_w = cs.kernel;
      g.stride_h = g.stride_w = cs.stride;
      g.dilation_h = g.dilation_w = cs.dilation;
      g.pad_h = g.pad_w = cs.dilation * (cs.kernel - 1) / 2;
      const std::int64_t rows = g.col_rows();
      const std::int64_t pixels = g.col_cols();
      const std::int64_t image = cs.c * cs.h * cs.w;
      std::vector<float> x = random_vec(static_cast<std::size_t>(image), rng);
      std::vector<float> w = random_vec(static_cast<std::size_t>(rows), rng);
      std::vector<float> dy =
          random_vec(static_cast<std::size_t>(pixels), rng);
      const std::vector<float> dw0 =
          random_vec(static_cast<std::size_t>(rows), rng);
      if (poisoned == Poison::kData) {
        poison(x, rng);
        poison(dy, rng);
      } else if (poisoned == Poison::kWeight) {
        w[static_cast<std::size_t>(rows / 2)] = INFINITY;
      }

      std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
      im2col(x.data(), g, 0, rows, cols.data());
      std::vector<float> want_y(static_cast<std::size_t>(pixels));
      matmul_reference(w.data(), cols.data(), want_y.data(), 1, rows, pixels);
      std::vector<float> want_dw = dw0;
      matmul_bt_reference(dy.data(), cols.data(), want_dw.data(), 1, pixels,
                          rows, /*accumulate=*/true);
      std::vector<float> dcols(cols.size());
      matmul_at_reference(w.data(), dy.data(), dcols.data(), rows, 1, pixels);
      std::vector<float> want_dx(static_cast<std::size_t>(image), 0.0f);
      col2im(dcols.data(), g, 0, rows, want_dx.data());

      for (IsaTier tier : runnable_tiers()) {
        const SingleOutputConv conv(g, w.data(), tier);
        std::vector<float> scratch(
            std::max(conv.forward_scratch(), conv.backward_scratch()));
        std::vector<float> y(static_cast<std::size_t>(pixels));
        conv.forward(x.data(), scratch.data(), y.data());
        std::vector<float> dw = dw0;
        std::vector<float> dx(static_cast<std::size_t>(image));
        conv.backward(x.data(), dy.data(), dw.data(), dx.data(),
                      scratch.data());
        const std::string where =
            std::string(to_string(tier)) + " " + std::to_string(cs.c) + "x" +
            std::to_string(cs.h) + "x" + std::to_string(cs.w) + " k" +
            std::to_string(cs.kernel) + " poison " +
            std::to_string(static_cast<int>(poisoned));
        EXPECT_EQ(first_bit_mismatch(want_y.data(), y.data(), pixels), -1)
            << where << ": forward";
        EXPECT_EQ(first_bit_mismatch(want_dw.data(), dw.data(), rows), -1)
            << where << ": dW";
        EXPECT_EQ(first_bit_mismatch(want_dx.data(), dx.data(), image), -1)
            << where << ": dx";
      }
    }
  }
}

TEST(WeightGemm, RunMatchesTheDirectKernelBitwise) {
  // One fixed A against a batch of B operands, the way a conv layer
  // uses it. Under a reference plan run() must be the *_reference
  // kernel; under a packed plan it must be gemm_packed (same plan, same
  // panel layout, same summation order). Both must hold serially and
  // from concurrent batch workers at every pool size.
  const std::int64_t m = 37, k = 120, n = 50;
  const std::size_t batch = 6;
  Rng rng(11);
  for (GemmOp op : {GemmOp::kNN, GemmOp::kAT, GemmOp::kBT}) {
    const std::vector<float> a =
        random_vec(static_cast<std::size_t>(m * k), rng);
    std::vector<std::vector<float>> bs;
    for (std::size_t i = 0; i < batch; ++i) {
      bs.push_back(random_vec(static_cast<std::size_t>(k * n), rng));
    }
    for (const GemmPlan& plan : {forced_reference_plan(op, m, k, n),
                                 forced_packed_plan(op, m, k, n)}) {
      std::vector<std::vector<float>> want(
          batch, std::vector<float>(static_cast<std::size_t>(m * n)));
      for (std::size_t i = 0; i < batch; ++i) {
        if (plan.strategy == GemmStrategy::kPacked) {
          gemm_packed(plan, a.data(), bs[i].data(), want[i].data(), false);
        } else {
          run_reference(op, a.data(), bs[i].data(), want[i].data(), m, k, n,
                        false);
        }
      }
      for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::reset_global(threads);
        const WeightGemm gemm(plan, a.data());
        // Stale output contents must not leak into the result.
        std::vector<std::vector<float>> serial(
            batch, std::vector<float>(static_cast<std::size_t>(m * n), 7.0f));
        std::vector<std::vector<float>> parallel = serial;
        for (std::size_t i = 0; i < batch; ++i) {
          gemm.run(bs[i].data(), serial[i].data());
        }
        parallel_for(batch, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            gemm.run(bs[i].data(), parallel[i].data());
          }
        });
        for (std::size_t i = 0; i < batch; ++i) {
          EXPECT_TRUE(bitwise_equal(serial[i], want[i]))
              << plan.to_string() << " serial, pool " << threads << ", b"
              << i;
          EXPECT_TRUE(bitwise_equal(parallel[i], want[i]))
              << plan.to_string() << " parallel_for, pool " << threads
              << ", b" << i;
        }
      }
    }
  }
  ThreadPool::reset_global(0);
}

TEST(GemmPacked, BitIdenticalAcrossThreadPoolSizes) {
  Rng rng(13);
  const std::int64_t m = 64, k = 162, n = 256;  // cost model picks packed
  std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), rng);
  std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), rng);
  ASSERT_EQ(make_gemm_plan(GemmOp::kNN, m, k, n).strategy,
            GemmStrategy::kPacked);
  std::vector<std::vector<float>> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::reset_global(threads);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    matmul(a.data(), b.data(), c.data(), m, k, n);
    results.push_back(std::move(c));
  }
  ThreadPool::reset_global(0);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(results[0].data(), results[i].data(),
                             results[0].size() * sizeof(float)))
        << "pool size index " << i;
  }
}

TEST(GemmPacked, ConvForwardBackwardBitIdenticalAcrossPoolSizes) {
  // End to end through Conv2d: the planner picks packed for this shape
  // and the fixed MR row partition + fixed dW slices must keep both
  // directions bit-identical whatever the pool size.
  Conv2dOptions opts;
  opts.in_channels = 2;
  opts.out_channels = 64;
  opts.kernel = 9;
  opts.same_padding();
  std::vector<Tensor> weights, grads;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::reset_global(threads);
    Rng rng(21);
    Conv2d conv("c", opts, rng);
    Tensor x(Shape::of(2, 2, 16, 16));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    Tensor y = conv.forward(x, true);
    conv.backward(y);  // any upstream grad works; y is deterministic
    weights.push_back(y);
    grads.push_back(conv.weight().grad);
  }
  ThreadPool::reset_global(0);
  for (std::size_t i = 1; i < weights.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(weights[0].data(), weights[i].data(),
                             static_cast<std::size_t>(weights[0].numel()) *
                                 sizeof(float)));
    EXPECT_EQ(0, std::memcmp(grads[0].data(), grads[i].data(),
                             static_cast<std::size_t>(grads[0].numel()) *
                                 sizeof(float)));
  }
}

// ---- Conv layers against their whole-matrix lowering ----

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

Tensor random_input(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

struct LayerResults {
  Tensor y, dx, dw, db;
};

// Adds bias[co] to every pixel of each channel of one sample.
void add_bias(const Tensor& bias, std::int64_t pixels, float* out) {
  for (std::int64_t co = 0; co < bias.numel(); ++co) {
    for (std::int64_t i = 0; i < pixels; ++i) out[co * pixels + i] += bias[co];
  }
}

// db partial of one sample: per channel, the double sum of dy.
void add_bias_grad(const float* dy, std::int64_t pixels, Tensor& db) {
  Tensor partial(db.shape());
  for (std::int64_t co = 0; co < db.numel(); ++co) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < pixels; ++i) acc += dy[co * pixels + i];
    partial[co] += static_cast<float>(acc);
  }
  add_inplace(db, partial);
}

// Conv2d lowered the way it was before banding: one full im2col matrix
// per sample, the one-shot GEMMs the current plan mode picks for the
// whole shape, and the layer's reduction order (batch <= 16, so one
// sample per dW/db slice, summed in sample order).
LayerResults conv2d_oracle(const Conv2dOptions& o, const Tensor& w,
                           const Tensor& bias, const Tensor& x,
                           const Tensor& dy) {
  ConvGeometry g;
  g.channels = o.in_channels;
  g.height = x.shape().dim(2);
  g.width = x.shape().dim(3);
  g.kernel_h = g.kernel_w = o.kernel;
  g.pad_h = g.pad_w = o.padding;
  g.stride_h = g.stride_w = o.stride;
  g.dilation_h = g.dilation_w = o.dilation;
  const std::int64_t N = x.shape().dim(0);
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t in_stride = x.numel() / N;
  const std::int64_t out_stride = o.out_channels * pixels;

  const WeightGemm fwd(gemm_plan(GemmOp::kNN, o.out_channels, rows, pixels),
                       w.data());
  const WeightGemm data(gemm_plan(GemmOp::kAT, rows, o.out_channels, pixels),
                        w.data());
  LayerResults r{Tensor(dy.shape()), Tensor(x.shape()), Tensor(w.shape()),
                 Tensor(bias.shape())};
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
  std::vector<float> dcols(cols.size());
  for (std::int64_t n = 0; n < N; ++n) {
    const float* dy_n = dy.data() + n * out_stride;
    im2col(x.data() + n * in_stride, g, 0, rows, cols.data());
    fwd.run(cols.data(), r.y.data() + n * out_stride);
    add_bias(bias, pixels, r.y.data() + n * out_stride);
    Tensor dw_n(w.shape());
    matmul_bt(dy_n, cols.data(), dw_n.data(), o.out_channels, pixels, rows,
              /*accumulate=*/true);
    add_inplace(r.dw, dw_n);
    add_bias_grad(dy_n, pixels, r.db);
    data.run(dy_n, dcols.data());
    col2im(dcols.data(), g, 0, rows, r.dx.data() + n * in_stride);
  }
  return r;
}

// ConvTranspose2d's adjoint lowering, written out the same way.
LayerResults deconv_oracle(const ConvTranspose2dOptions& o, const Tensor& w,
                           const Tensor& bias, const Tensor& x,
                           const Tensor& dy) {
  ConvGeometry g;
  g.channels = o.out_channels;
  g.height = dy.shape().dim(2);
  g.width = dy.shape().dim(3);
  g.kernel_h = g.kernel_w = o.kernel;
  g.pad_h = g.pad_w = o.padding;
  g.stride_h = g.stride_w = o.stride;
  const std::int64_t N = x.shape().dim(0);
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();  // = input H * W
  const std::int64_t in_stride = o.in_channels * pixels;
  const std::int64_t out_stride = dy.numel() / N;

  const WeightGemm fwd(gemm_plan(GemmOp::kAT, rows, o.in_channels, pixels),
                       w.data());
  const WeightGemm data(gemm_plan(GemmOp::kNN, o.in_channels, rows, pixels),
                        w.data());
  LayerResults r{Tensor(dy.shape()), Tensor(x.shape()), Tensor(w.shape()),
                 Tensor(bias.shape())};
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
  for (std::int64_t n = 0; n < N; ++n) {
    const float* x_n = x.data() + n * in_stride;
    const float* dy_n = dy.data() + n * out_stride;
    fwd.run(x_n, cols.data());
    col2im(cols.data(), g, 0, rows, r.y.data() + n * out_stride);
    add_bias(bias, out_stride / o.out_channels, r.y.data() + n * out_stride);
    im2col(dy_n, g, 0, rows, cols.data());
    data.run(cols.data(), r.dx.data() + n * in_stride);
    Tensor dw_n(w.shape());
    matmul_bt(x_n, cols.data(), dw_n.data(), o.in_channels, pixels, rows,
              /*accumulate=*/true);
    add_inplace(r.dw, dw_n);
    add_bias_grad(dy_n, out_stride / o.out_channels, r.db);
  }
  return r;
}

// Conv2d — banded lowering for Cout > 1 (with and without input
// grad), the direct kernels for Cout == 1 — and ConvTranspose2d must
// reproduce the whole-matrix lowering bit for bit: forward, dW, db and
// dx, for single-, few- and many-output-channel layers, under both plan
// modes, at every pool size. One variant puts a NaN in the input, which
// reaches every output that reads it (0 * NaN = NaN, as
// GemmPacked.PropagatesNonFiniteValues requires of the kernels);
// another sets one weight to +Inf, whose products with padding zeros
// are NaN in the lowered path and must stay NaN.
TEST(ConvLowering, LayersMatchWholeMatrixLoweringBitwise) {
  struct ConvCase {
    std::int64_t cin, h, w, kernel, stride, dilation;
    std::vector<std::int64_t> couts;
  };
  // Under reference plans, 3 x 81 = 243 rows of 256 pixels make eight
  // 32-row bands with a ragged, non-multiple-of-4 last one; the
  // strided, dilated case (100 rows of 12 x 11 pixels) makes a 60-row
  // and a 40-row band and exercises the strided gather and scatter.
  // The 7 x 9 case has OW % 4 != 0 and OH * OW % 4 != 0 (the direct
  // kernels' gathered groups and tail pixels); the last is the
  // fleet_1k_robust FLNet head.
  const std::vector<ConvCase> conv_cases = {
      {3, 16, 16, 9, 1, 1, {1, 3, 64}},
      {4, 23, 21, 5, 2, 2, {1, 3, 64}},
      {2, 7, 9, 5, 1, 1, {1, 3, 64}},
      {64, 8, 8, 9, 1, 1, {1}}};
  enum class Poison { kNanInput, kInfWeight };
  for (PlanMode mode : {PlanMode::kAuto, PlanMode::kReference}) {
    const PlanModeGuard guard(mode);
    const std::string mode_name =
        mode == PlanMode::kAuto ? "auto" : "reference";
    for (const ConvCase& cc : conv_cases) {
      for (std::int64_t cout : cc.couts) {
        for (Poison poison : {Poison::kNanInput, Poison::kInfWeight}) {
          Conv2dOptions o;
          o.in_channels = cc.cin;
          o.out_channels = cout;
          o.kernel = cc.kernel;
          o.stride = cc.stride;
          o.dilation = cc.dilation;
          o.same_padding();
          Rng rng(static_cast<std::uint64_t>(31 + cout));
          Tensor x = random_input(Shape::of(3, cc.cin, cc.h, cc.w), rng);
          const std::int64_t nan_at = x.numel() / 2 + 5;
          if (poison == Poison::kNanInput) x[nan_at] = std::nanf("");
          for (std::size_t threads : {1u, 2u, 8u}) {
            ThreadPool::reset_global(threads);
            for (bool input_grad : {true, false}) {
              o.input_grad = input_grad;
              Rng init(7);
              Conv2d conv("c", o, init);
              conv.bias().value =
                  random_input(conv.bias().value.shape(), init);
              // Row 0 is channel 0's top-left tap: it reads padding at
              // the top-left output pixel.
              if (poison == Poison::kInfWeight) {
                conv.weight().value[0] = INFINITY;
              }
              const Tensor y = conv.forward(x, /*training=*/true);
              Rng grad_rng(9);
              const Tensor dy = random_input(y.shape(), grad_rng);
              const Tensor dx = conv.backward(dy);
              const LayerResults want = conv2d_oracle(
                  o, conv.weight().value, conv.bias().value, x, dy);
              const std::string where =
                  conv.describe() + " " + mode_name + " pool " +
                  std::to_string(threads) +
                  (poison == Poison::kNanInput ? ", NaN input"
                                               : ", +Inf weight");
              EXPECT_TRUE(bits_equal(y, want.y)) << where << ": forward";
              EXPECT_TRUE(bits_equal(conv.weight().grad, want.dw))
                  << where << ": dW";
              EXPECT_TRUE(bits_equal(conv.bias().grad, want.db))
                  << where << ": db";
              if (input_grad) {
                EXPECT_TRUE(bits_equal(dx, want.dx)) << where << ": dx";
              } else {
                EXPECT_TRUE(dx.empty()) << where;
              }
              if (poison == Poison::kInfWeight) {
                EXPECT_TRUE(std::isnan(y[0])) << where;
              } else if (cc.stride == 1) {
                // The NaN pixel is the centre tap of its own output
                // pixel in the stride-1 cases.
                const std::int64_t pixels = cc.h * cc.w;
                const std::int64_t sample = nan_at / (cc.cin * pixels);
                for (std::int64_t co = 0; co < cout; ++co) {
                  EXPECT_TRUE(std::isnan(
                      y[(sample * cout + co) * pixels + nan_at % pixels]))
                      << where << ", channel " << co;
                }
              }
            }
          }
        }
      }
    }
    for (std::int64_t cout : {1, 3, 64}) {
      ConvTranspose2dOptions o;
      o.in_channels = 5;
      o.out_channels = cout;
      o.kernel = 4;
      o.stride = 2;
      o.padding = 1;
      Rng rng(static_cast<std::uint64_t>(57 + cout));
      Tensor x = random_input(Shape::of(2, 5, 6, 7), rng);
      x[17] = std::nanf("");
      for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::reset_global(threads);
        Rng init(8);
        ConvTranspose2d deconv("d", o, init);
        Parameter& weight = *deconv.parameters()[0];
        Parameter& bias = *deconv.parameters()[1];
        bias.value = random_input(bias.value.shape(), init);
        const Tensor y = deconv.forward(x, /*training=*/true);
        Rng grad_rng(10);
        const Tensor dy = random_input(y.shape(), grad_rng);
        const Tensor dx = deconv.backward(dy);
        const LayerResults want =
            deconv_oracle(o, weight.value, bias.value, x, dy);
        const std::string where = deconv.describe() + " " + mode_name +
                                  " pool " + std::to_string(threads);
        EXPECT_TRUE(bits_equal(y, want.y)) << where << ": forward";
        EXPECT_TRUE(bits_equal(weight.grad, want.dw)) << where << ": dW";
        EXPECT_TRUE(bits_equal(bias.grad, want.db))
            << where << ": db";
        EXPECT_TRUE(bits_equal(dx, want.dx)) << where << ": dx";
      }
    }
  }
  ThreadPool::reset_global(0);
}

TEST(CostModel, SkinnyShapesStayOnReference) {
  // Vector-matrix products, tiny tails, and single-output-channel
  // convs (FLNet's output conv has m=1) must not pay for packing.
  EXPECT_EQ(make_gemm_plan(GemmOp::kNN, 1, 5184, 4096).strategy,
            GemmStrategy::kReference);
  EXPECT_EQ(make_gemm_plan(GemmOp::kNN, 4, 3, 4).strategy,
            GemmStrategy::kReference);
  EXPECT_EQ(make_gemm_plan(GemmOp::kBT, 64, 8, 64).strategy,
            GemmStrategy::kReference);
}

TEST(CostModel, FatShapesPackWithSaneBlocking) {
  for (const GemmPlan& plan :
       {make_gemm_plan(GemmOp::kNN, 64, 486, 1024),
        make_gemm_plan(GemmOp::kAT, 486, 64, 1024),
        make_gemm_plan(GemmOp::kBT, 64, 1024, 486)}) {
    EXPECT_EQ(plan.strategy, GemmStrategy::kPacked) << plan.to_string();
    EXPECT_GE(plan.kc, 8) << plan.to_string();
    EXPECT_LE(plan.kc, plan.shape.k) << plan.to_string();
    EXPECT_EQ(plan.nc % kGemmNR, 0) << plan.to_string();
    EXPECT_EQ(plan.mc % kGemmMR, 0) << plan.to_string();
  }
}

TEST(PlanMode, GemmPlanIsTheCostModelInAutoAndReferenceOtherwise) {
  const GemmShape shapes[] = {{GemmOp::kNN, 64, 486, 1024},
                              {GemmOp::kAT, 486, 64, 1024},
                              {GemmOp::kBT, 64, 1024, 486},
                              {GemmOp::kNN, 1, 5184, 4096}};
  for (const GemmShape& s : shapes) {
    GemmPlan got;
    {
      PlanModeGuard guard(PlanMode::kAuto);
      got = gemm_plan(s.op, s.m, s.k, s.n);
    }
    const GemmPlan want = make_gemm_plan(s.op, s.m, s.k, s.n);
    EXPECT_EQ(got.to_string(), want.to_string());
    EXPECT_EQ(got.flops, want.flops);
    {
      PlanModeGuard guard(PlanMode::kReference);
      got = gemm_plan(s.op, s.m, s.k, s.n);
    }
    EXPECT_EQ(got.strategy, GemmStrategy::kReference) << got.to_string();
    EXPECT_EQ(got.shape.op, s.op);
    EXPECT_EQ(got.shape.m, s.m);
    EXPECT_EQ(got.shape.k, s.k);
    EXPECT_EQ(got.shape.n, s.n);
  }
}

// Conv2d runs a Cout == 1 layer on direct kernels that repeat the
// reference kernels' operation order, so it matches the lowered path
// only while every GEMM of such a layer — forward kNN m=1, dW kBT m=1,
// dx kAT k=1 — gets a reference plan. Checked for each model's head at
// grids up to 256, in both modes.
TEST(PlanMode, SingleOutputHeadsPlanReferenceGemmsInBothModes) {
  for (ModelKind kind :
       {ModelKind::kFLNet, ModelKind::kRouteNet, ModelKind::kPROS}) {
    Rng rng(5);
    RoutabilityModelPtr model = make_model(kind, kNumFeatureChannels, rng);
    const Parameter* head = nullptr;
    for (Parameter* p : model->parameters()) {
      if (p->name == "output_conv.weight") head = p;
    }
    ASSERT_NE(head, nullptr) << to_string(kind);
    ASSERT_EQ(head->value.shape().dim(0), 1) << to_string(kind);
    const std::int64_t rows = head->value.shape().dim(1);
    for (PlanMode mode : {PlanMode::kAuto, PlanMode::kReference}) {
      const PlanModeGuard guard(mode);
      for (std::int64_t grid : {4, 8, 16, 32, 64, 256}) {
        const std::int64_t pixels = grid * grid;  // stride 1, same padding
        for (const GemmPlan& plan : {gemm_plan(GemmOp::kNN, 1, rows, pixels),
                                     gemm_plan(GemmOp::kBT, 1, pixels, rows),
                                     gemm_plan(GemmOp::kAT, rows, 1, pixels)}) {
          EXPECT_EQ(plan.strategy, GemmStrategy::kReference)
              << to_string(kind) << " grid " << grid << ": "
              << plan.to_string();
        }
      }
    }
  }
}

TEST(PlanMode, ParsesOnlyAutoAndReference) {
  EXPECT_EQ(parse_plan_mode("auto"), PlanMode::kAuto);
  EXPECT_EQ(parse_plan_mode("reference"), PlanMode::kReference);
  // Near misses must fail loudly: silently running auto would break
  // the FLEDA_PLAN=reference reproduction contract.
  for (const char* bad : {"ref", "Reference", ""}) {
    try {
      parse_plan_mode(bad);
      ADD_FAILURE() << "accepted FLEDA_PLAN='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + std::string(bad) + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("'auto'"), std::string::npos) << what;
      EXPECT_NE(what.find("'reference'"), std::string::npos) << what;
    }
  }
}

TEST(PlanMode, ReferenceModeMatchesReferenceBits) {
  PlanModeGuard guard(PlanMode::kReference);
  Rng rng(31);
  const std::int64_t m = 64, k = 486, n = 256;
  std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), rng);
  std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> via_dispatch(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> direct(static_cast<std::size_t>(m * n), 0.0f);
  matmul(a.data(), b.data(), via_dispatch.data(), m, k, n);
  matmul_reference(a.data(), b.data(), direct.data(), m, k, n, false);
  EXPECT_TRUE(bitwise_equal(via_dispatch, direct));
}

// One optimizer step on FLNet under both plan modes: the packed and
// reference kernels follow different summation orders, so the updated
// parameters agree to float tolerance, not bitwise.
TEST(PlanMode, TrainingStepEquivalentUnderBothModes) {
  auto step = [](PlanMode mode) {
    PlanModeGuard guard(mode);
    Rng rng(41);
    FLNetOptions opts;
    opts.in_channels = 2;
    FLNet model(opts, rng);
    Tensor x(Shape::of(2, 2, 16, 16));
    Tensor target(Shape::of(2, 1, 16, 16));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    for (std::int64_t i = 0; i < target.numel(); ++i) {
      target[i] = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    Adam adam(model.parameters(), AdamOptions{});
    adam.zero_grad();
    LossResult loss = mse_loss(model.forward(x, true), target);
    model.backward(loss.grad);
    adam.step();
    std::vector<float> flat;
    for (Parameter* p : model.parameters()) {
      for (std::int64_t i = 0; i < p->value.numel(); ++i) {
        flat.push_back(p->value[i]);
      }
    }
    return flat;
  };
  const std::vector<float> with_auto = step(PlanMode::kAuto);
  const std::vector<float> with_reference = step(PlanMode::kReference);
  ASSERT_EQ(with_auto.size(), with_reference.size());
  EXPECT_LE(max_abs_diff(with_auto, with_reference), 1e-4f);
}

TEST(GemmPacked, PropagatesNonFiniteValues) {
  // 0 * NaN = NaN in both strategies: a poisoned B must poison C even
  // when the matching A entries are zero (the old axpy1 shortcut
  // skipped the whole row).
  const std::int64_t m = 8, k = 5, n = 33;  // k=5 exercises the k<4 tail
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  std::vector<float> b(static_cast<std::size_t>(k * n), 1.0f);
  b[static_cast<std::size_t>(4 * n) + 7] = std::nanf("");  // tail row
  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.0f);
  matmul_reference(a.data(), b.data(), c_ref.data(), m, k, n, false);
  std::vector<float> c_packed(static_cast<std::size_t>(m * n), 0.0f);
  gemm_packed(forced_packed_plan(GemmOp::kNN, m, k, n), a.data(), b.data(),
              c_packed.data(), false);
  for (std::int64_t i = 0; i < m; ++i) {
    EXPECT_TRUE(std::isnan(c_ref[static_cast<std::size_t>(i * n) + 7]))
        << "reference row " << i;
    EXPECT_TRUE(std::isnan(c_packed[static_cast<std::size_t>(i * n) + 7]))
        << "packed row " << i;
  }
}

}  // namespace
}  // namespace fleda
