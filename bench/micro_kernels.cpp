// Kernel-planner microbenchmark: GFLOP/s of the reference axpy kernels
// vs the planner's auto choice (packed cache-blocked GEMM on fat
// shapes) for the GEMM shapes the RouteNet / FLNet conv layers actually
// run.
//
// Emits BENCH_kernels.json for the CI bench-trajectory artifact;
// ci/perf_gate.py diffs the per-shape auto GFLOP/s against the previous
// main run with a +/-20% band. The bench gates itself on correctness
// (auto result within summation-order tolerance of reference for every
// shape) and on the cost model picking packed for the fat conv shapes.
//
// Shape naming: <model>_<layer>[_dw|_dx]. Forward conv GEMMs are kNN
// (weight x im2col columns), backward dW is kBT (dy x cols^T), backward
// dcols is kAT (W^T x dy). Grid 32 is the "quick" bench scale; the
// sim_* rows are micro_sim's synthetic FLNet world (grid 8, 2 input
// channels), so the K = 1000 federation numbers trace back to these.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "tensor/matmul.hpp"
#include "tensor/plan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fleda {
namespace {

struct ShapeCase {
  const char* name;
  GemmOp op;
  std::int64_t m, k, n;
};

// The conv GEMM shapes of the two paper models at the quick bench
// scale (grid 32; pooled stages at 16), and micro_sim's tiny world.
const ShapeCase kShapes[] = {
    {"flnet_conv1", GemmOp::kNN, 64, 486, 1024},
    {"flnet_conv1_dw", GemmOp::kBT, 64, 1024, 486},
    {"flnet_conv1_dx", GemmOp::kAT, 486, 64, 1024},
    {"flnet_output", GemmOp::kNN, 1, 5184, 1024},
    {"routenet_conv2", GemmOp::kNN, 64, 1568, 1024},
    {"routenet_conv3", GemmOp::kNN, 32, 5184, 256},
    {"routenet_deconv", GemmOp::kAT, 512, 32, 256},
    {"sim_flnet_conv1", GemmOp::kNN, 64, 162, 64},
};

struct ShapeResult {
  const ShapeCase* shape = nullptr;
  GemmStrategy strategy = GemmStrategy::kReference;
  double reference_gflops = 0.0;
  double auto_gflops = 0.0;
  double speedup = 0.0;
  float max_abs_diff = 0.0f;
  bool equivalent = false;
};

std::vector<float> random_vec(std::size_t elems, Rng& rng) {
  std::vector<float> v(elems);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void run_reference(const ShapeCase& s, const float* a, const float* b,
                   float* c) {
  switch (s.op) {
    case GemmOp::kNN:
      matmul_reference(a, b, c, s.m, s.k, s.n, false);
      return;
    case GemmOp::kAT:
      matmul_at_reference(a, b, c, s.m, s.k, s.n, false);
      return;
    case GemmOp::kBT:
      matmul_bt_reference(a, b, c, s.m, s.k, s.n, false);
      return;
  }
}

void run_auto(const ShapeCase& s, const float* a, const float* b, float* c) {
  switch (s.op) {
    case GemmOp::kNN:
      matmul(a, b, c, s.m, s.k, s.n, false);
      return;
    case GemmOp::kAT:
      matmul_at(a, b, c, s.m, s.k, s.n, false);
      return;
    case GemmOp::kBT:
      matmul_bt(a, b, c, s.m, s.k, s.n, false);
      return;
  }
}

// Median-of-3 timed runs; each run repeats the GEMM until ~0.15s has
// accumulated so tiny shapes are not measuring clock overhead.
template <typename Fn>
double measure_gflops(double flops_per_call, Fn&& call) {
  // Calibrate the repetition count off one warm call.
  Timer warm;
  call();
  const double once = std::max(warm.seconds(), 1e-6);
  const int reps =
      static_cast<int>(std::clamp(0.15 / once, 1.0, 2000.0));
  double best_rate = 0.0;
  std::vector<double> rates;
  for (int run = 0; run < 3; ++run) {
    Timer timer;
    for (int i = 0; i < reps; ++i) call();
    const double rate =
        flops_per_call * reps / std::max(timer.seconds(), 1e-9) * 1e-9;
    rates.push_back(rate);
    best_rate = std::max(best_rate, rate);
  }
  std::sort(rates.begin(), rates.end());
  return rates[1];  // median
}

ShapeResult bench_shape(const ShapeCase& s, Rng& rng) {
  ShapeResult result;
  result.shape = &s;
  const std::vector<float> a =
      random_vec(static_cast<std::size_t>(s.m * s.k), rng);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(s.k * s.n), rng);
  std::vector<float> c_ref(static_cast<std::size_t>(s.m * s.n), 0.0f);
  std::vector<float> c_auto(static_cast<std::size_t>(s.m * s.n), 0.0f);

  const GemmPlan plan = gemm_plan(s.op, s.m, s.k, s.n);
  result.strategy = plan.strategy;

  result.reference_gflops = measure_gflops(
      plan.flops, [&] { run_reference(s, a.data(), b.data(), c_ref.data()); });
  result.auto_gflops = measure_gflops(
      plan.flops, [&] { run_auto(s, a.data(), b.data(), c_auto.data()); });
  result.speedup = result.auto_gflops / result.reference_gflops;

  float worst = 0.0f;
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    worst = std::max(worst, std::fabs(c_ref[i] - c_auto[i]));
  }
  result.max_abs_diff = worst;
  // Summation-order tolerance, same budget as kernel_plan_test.
  const float tolerance =
      1e-5f * std::max(1.0f, std::sqrt(static_cast<float>(s.k)));
  result.equivalent = worst <= tolerance;
  return result;
}

void write_bench_json(const std::vector<ShapeResult>& results, bool pass) {
  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_kernels: cannot write BENCH_kernels.json\n");
    return;
  }
  std::fprintf(f, "{\"bench\":\"micro_kernels\",\"threads\":%zu,\"shapes\":[",
               ThreadPool::global().size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShapeResult& r = results[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"op\":\"%s\",\"m\":%lld,\"k\":%lld,"
        "\"n\":%lld,\"strategy\":\"%s\",\"reference_gflops\":%.3f,"
        "\"auto_gflops\":%.3f,\"speedup\":%.3f,\"max_abs_diff\":%.2e}",
        i == 0 ? "" : ",", r.shape->name, to_string(r.shape->op),
        static_cast<long long>(r.shape->m),
        static_cast<long long>(r.shape->k),
        static_cast<long long>(r.shape->n), to_string(r.strategy),
        r.reference_gflops, r.auto_gflops, r.speedup,
        static_cast<double>(r.max_abs_diff));
  }
  std::fprintf(f, "],\"pass\":%s}\n", pass ? "true" : "false");
  std::fclose(f);
}

int main_impl() {
  std::printf("== micro_kernels: planner strategies on model GEMM shapes ==\n");
  std::printf("threads=%zu plan_mode=%s MR=%lld NR=%lld\n",
              ThreadPool::global().size(),
              plan_mode() == PlanMode::kReference ? "reference" : "auto",
              static_cast<long long>(kGemmMR),
              static_cast<long long>(kGemmNR));

  Rng rng(1234);
  std::vector<ShapeResult> results;
  for (const ShapeCase& s : kShapes) {
    results.push_back(bench_shape(s, rng));
  }

  std::printf("%-18s %-3s %5s %5s %5s  %-9s %9s %9s %8s %9s\n", "shape",
              "op", "m", "k", "n", "strategy", "ref GF/s", "auto GF/s",
              "speedup", "max|diff|");
  for (const ShapeResult& r : results) {
    std::printf(
        "%-18s %-3s %5lld %5lld %5lld  %-9s %9.2f %9.2f %7.2fx %9.1e\n",
        r.shape->name, to_string(r.shape->op),
        static_cast<long long>(r.shape->m),
        static_cast<long long>(r.shape->k),
        static_cast<long long>(r.shape->n), to_string(r.strategy),
        r.reference_gflops, r.auto_gflops, r.speedup,
        static_cast<double>(r.max_abs_diff));
  }

  // Gates. (1) Every shape's auto result is numerically equivalent to
  // reference. (2) The cost model packs the fat conv shapes and leaves
  // the m=1 output conv on reference.
  bool pass = true;
  for (const ShapeResult& r : results) {
    if (!r.equivalent) {
      std::printf("FAIL: %s auto diverged from reference (%.2e)\n",
                  r.shape->name, static_cast<double>(r.max_abs_diff));
      pass = false;
    }
  }
  auto strategy_of = [&](const std::string& name) {
    for (const ShapeResult& r : results) {
      if (name == r.shape->name) return r.strategy;
    }
    return GemmStrategy::kReference;
  };
  if (plan_mode() == PlanMode::kAuto) {
    for (const char* fat :
         {"flnet_conv1", "routenet_conv2", "routenet_conv3",
          "sim_flnet_conv1"}) {
      if (strategy_of(fat) != GemmStrategy::kPacked) {
        std::printf("FAIL: cost model left fat shape %s on reference\n", fat);
        pass = false;
      }
    }
    if (strategy_of("flnet_output") != GemmStrategy::kReference) {
      std::printf("FAIL: cost model packed the m=1 output conv\n");
      pass = false;
    }
  }

  write_bench_json(results, pass);
  std::printf("{\"bench\":\"micro_kernels\",\"pass\":%s}\n",
              pass ? "true" : "false");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace fleda

int main() { return fleda::main_impl(); }
