// google-benchmark microbenchmarks for the substrates: matmul kernels,
// im2col, convolution layers, the placer/router data pipeline, and the
// ROC AUC metric. These guard the CPU budget of the table benches.
//
// The conv and model rows run at the two perfbench shapes: FLNet on
// grid 16 x batch 4 x 6 channels (paper_smoke) and grid 8 x batch 2 x
// 2 channels (fleet_1k_robust). The per-layer Conv2d rows show what
// share of a FLNet step each of its two convs takes, and what the
// single-output heads of the three models cost.
//
// Those rows time wall clock, not the main thread's CPU time: the
// layers run batch-parallel on the thread pool, whose workers' time
// the CPU clock misses. Each runs five repetitions and reports their
// mean, median, stddev and cv, so a change can be read against the
// row's own spread.
#include <benchmark/benchmark.h>

#include "metrics/roc_auc.hpp"
#include "models/registry.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "phys/drc.hpp"
#include "phys/features.hpp"
#include "phys/global_router.hpp"
#include "phys/netlist.hpp"
#include "phys/placer.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"

namespace fleda {
namespace {

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const std::int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  Tensor a = random_tensor(Shape::of(m, k), rng);
  Tensor b = random_tensor(Shape::of(k, n), rng);
  Tensor c(Shape::of(m, n));
  for (auto _ : state) {
    matmul(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_Matmul)->Args({64, 486, 1024})->Args({32, 1568, 1024});

// Args: channels, grid. A 9x9 "same" conv's full column matrix.
void BM_Im2col(benchmark::State& state) {
  ConvGeometry g;
  g.channels = state.range(0);
  g.height = g.width = state.range(1);
  g.kernel_h = g.kernel_w = 9;
  g.pad_h = g.pad_w = 4;
  Rng rng(2);
  Tensor img = random_tensor(Shape::of(g.channels, g.height, g.width), rng);
  Tensor cols(Shape::of(g.col_rows(), g.col_cols()));
  for (auto _ : state) {
    im2col(img.data(), g, 0, g.col_rows(), cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetBytesProcessed(state.iterations() * cols.numel() *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_Im2col)
    ->Args({6, 16})
    ->Args({64, 16})
    ->Args({2, 8})
    ->Args({64, 8})
    ->Args({6, 32})
    ->Args({64, 32});

// Per-layer Conv2d rows in the darknet test_*_layer_forward/backward
// style: one layer built at a model's shape, forward or backward timed
// alone. Args: batch, in channels, out channels, grid, kernel,
// input_grad.
Conv2d make_bench_conv(const benchmark::State& state, Rng& rng) {
  Conv2dOptions o;
  o.in_channels = state.range(1);
  o.out_channels = state.range(2);
  o.kernel = state.range(4);
  o.input_grad = state.range(5) != 0;
  return Conv2d("conv", o.same_padding(), rng);
}

Tensor bench_conv_input(const benchmark::State& state, Rng& rng) {
  return random_tensor(Shape::of(state.range(0), state.range(1),
                                 state.range(3), state.range(3)),
                       rng);
}

void conv_layer_label(benchmark::State& state) {
  state.SetLabel(std::to_string(state.range(1)) + "->" +
                 std::to_string(state.range(2)) + " " +
                 std::to_string(state.range(4)) + "x" +
                 std::to_string(state.range(4)) + " grid " +
                 std::to_string(state.range(3)) + " batch " +
                 std::to_string(state.range(0)) +
                 (state.range(5) != 0 ? "" : ", no input grad"));
}

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(7);
  Conv2d conv = make_bench_conv(state, rng);
  const Tensor x = bench_conv_input(state, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, /*training=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  conv_layer_label(state);
}

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(8);
  Conv2d conv = make_bench_conv(state, rng);
  const Tensor x = bench_conv_input(state, rng);
  const Tensor dy = random_tensor(conv.forward(x, true).shape(), rng);
  for (auto _ : state) {
    Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data());
  }
  conv_layer_label(state);
}

// FLNet's input conv (no input gradient) and 64->1 output conv at both
// perfbench shapes, then the single-output heads of RouteNet (32->1,
// 5x5) and PROS (16->1, 3x3) at grid 32, batch 8.
void conv_layer_args(benchmark::internal::Benchmark* b) {
  b->Args({4, 6, 64, 16, 9, 0})
      ->Args({4, 64, 1, 16, 9, 1})
      ->Args({2, 2, 64, 8, 9, 0})
      ->Args({2, 64, 1, 8, 9, 1})
      ->Args({8, 32, 1, 32, 5, 1})
      ->Args({8, 16, 1, 32, 3, 1});
}
// Wall-clock time over repeated runs, reported as aggregates.
void repeated_wall_time(benchmark::internal::Benchmark* b) {
  b->UseRealTime()->Repetitions(5)->ReportAggregatesOnly(true);
}

BENCHMARK(BM_Conv2dForward)->Apply(conv_layer_args)->Apply(repeated_wall_time);
BENCHMARK(BM_Conv2dBackward)
    ->Apply(conv_layer_args)
    ->Apply(repeated_wall_time);

// One Adam training step. Args: model kind, batch, channels, grid.
void BM_ModelTrainStep(benchmark::State& state) {
  const ModelKind kind = static_cast<ModelKind>(state.range(0));
  const std::int64_t batch = state.range(1);
  const std::int64_t channels = state.range(2);
  const std::int64_t grid = state.range(3);
  Rng rng(3);
  RoutabilityModelPtr model = make_model(kind, channels, rng);
  Tensor x = random_tensor(Shape::of(batch, channels, grid, grid), rng);
  Tensor y(Shape::of(batch, 1, grid, grid));
  Adam adam(model->parameters(), AdamOptions{});
  for (auto _ : state) {
    adam.zero_grad();
    Tensor pred = model->forward(x, true);
    LossResult loss = mse_loss(pred, y);
    model->backward(loss.grad);
    adam.step();
  }
  state.SetLabel(to_string(kind) + " grid " + std::to_string(grid) +
                 " batch " + std::to_string(batch));
}
BENCHMARK(BM_ModelTrainStep)
    ->Apply(repeated_wall_time)
    ->Args({static_cast<int>(ModelKind::kFLNet), 4, kNumFeatureChannels, 16})
    ->Args({static_cast<int>(ModelKind::kFLNet), 2, 2, 8})
    ->Args({static_cast<int>(ModelKind::kFLNet), 8, kNumFeatureChannels, 32})
    ->Args({static_cast<int>(ModelKind::kRouteNet), 8, kNumFeatureChannels, 32})
    ->Args({static_cast<int>(ModelKind::kPROS), 8, kNumFeatureChannels, 32});

void BM_PlaceAndRoute(benchmark::State& state) {
  NetlistGenParams p;
  p.profile = profile_for(BenchmarkSuite::kItc99);
  p.grid_w = p.grid_h = 32;
  p.gcell_cell_capacity = 8.0;
  Rng gen_rng(4);
  NetlistPtr nl = generate_netlist(p, gen_rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    PlacerOptions popts;
    popts.moves_per_cell = 3.0;
    Placement pl = place(nl, popts, rng);
    RouterOptions ropts;
    ropts.capacity_scale = p.profile.capacity_scale;
    RoutingResult rr = route(pl, ropts, rng);
    benchmark::DoNotOptimize(rr.total_wirelength);
  }
}
BENCHMARK(BM_PlaceAndRoute);

void BM_FeatureExtraction(benchmark::State& state) {
  NetlistGenParams p;
  p.profile = profile_for(BenchmarkSuite::kIwls05);
  p.grid_w = p.grid_h = 32;
  p.gcell_cell_capacity = 8.0;
  Rng rng(5);
  NetlistPtr nl = generate_netlist(p, rng);
  PlacerOptions popts;
  Placement pl = place(nl, popts, rng);
  RouterOptions ropts;
  RoutingResult rr = route(pl, ropts, rng);
  DrcOptions dopts;
  for (auto _ : state) {
    FeatureSample s = extract_features(pl, rr, default_technology(), dopts);
    benchmark::DoNotOptimize(s.features.data());
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_RocAuc(benchmark::State& state) {
  Rng rng(6);
  std::vector<float> scores, labels;
  for (int i = 0; i < state.range(0); ++i) {
    scores.push_back(static_cast<float>(rng.uniform()));
    labels.push_back(rng.bernoulli(0.2) ? 1.0f : 0.0f);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(roc_auc(scores, labels));
  }
}
BENCHMARK(BM_RocAuc)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace
}  // namespace fleda

BENCHMARK_MAIN();
