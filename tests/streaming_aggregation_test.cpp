// Streaming-aggregation tests: the StreamingAccumulator protocol
// (fold/merge/finish per rule family), streaming ≡ dense at small K
// (exact to float rounding for the mean family, within one bin width
// for the histogram sketches), bit-identity of the streaming path
// across thread-pool sizes and shard counts (lane partition + merge
// order are pure functions of the cohort), the fold-time validation
// guards, the buffered accumulator's finish() == aggregate() for every
// registered rule, Channel::collect_streaming equivalence with
// per-message uploads, the fast client-construction schema, the
// importance_sample participation policy, and end-to-end streaming
// round loops (FedAvg, AlphaPortionSync, AsyncFedAvg).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/channel.hpp"
#include "fl/aggregation.hpp"
#include "fl/alpha_sync.hpp"
#include "fl/async_fedavg.hpp"
#include "fl/fedavg.hpp"
#include "fl/participation.hpp"
#include "fl/synthetic.hpp"
#include "models/pool.hpp"
#include "models/registry.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// A one-entry (plus one buffer) snapshot with hand-picked values —
// small enough that every rule's math is checkable by eye.
ModelParameters make_params(const std::vector<float>& weights_values,
                            float buffer_value = 0.0f) {
  ModelParameters p;
  ParameterEntry w;
  w.name = "w";
  w.value = Tensor(Shape{static_cast<std::int64_t>(weights_values.size())});
  for (std::size_t i = 0; i < weights_values.size(); ++i) {
    w.value[static_cast<std::int64_t>(i)] = weights_values[i];
  }
  p.mutable_entries().push_back(std::move(w));
  ParameterEntry b;
  b.name = "bn";
  b.is_buffer = true;
  b.value = Tensor(Shape{1});
  b.value[0] = buffer_value;
  p.mutable_entries().push_back(std::move(b));
  return p;
}

const float* values_of(const ModelParameters& p) {
  return p.entries()[0].value.data();
}

bool bit_identical(const ModelParameters& a, const ModelParameters& b) {
  if (!a.structurally_equal(b)) return false;
  for (std::size_t n = 0; n < a.entries().size(); ++n) {
    if (!a.entries()[n].value.equals(b.entries()[n].value)) return false;
  }
  return true;
}

double max_abs_diff(const ModelParameters& a, const ModelParameters& b) {
  EXPECT_TRUE(a.structurally_equal(b));
  double worst = 0.0;
  for (std::size_t n = 0; n < a.entries().size(); ++n) {
    const Tensor& ta = a.entries()[n].value;
    const Tensor& tb = b.entries()[n].value;
    for (std::int64_t i = 0; i < ta.numel(); ++i) {
      worst = std::max(worst,
                       std::abs(static_cast<double>(ta[i]) - tb[i]));
    }
  }
  return worst;
}

// Runs `cohort` through the rule's streaming path exactly like the
// round loops do: lanes from fold_lane_offsets, serial folds per lane
// in cohort order, lanes merged ascending, one finish.
ModelParameters stream_aggregate(const AggregationRule& rule,
                                 const ModelParameters& current,
                                 const std::vector<AggregationInput>& cohort,
                                 std::size_t shards = 0) {
  ShardLayout layout;
  layout.cohort_size = cohort.size();
  layout.shards = shards;
  const std::vector<std::size_t> lanes =
      fold_lane_offsets(cohort.size(), layout.lanes);
  std::vector<std::unique_ptr<StreamingAccumulator>> accs(layout.lanes);
  for (auto& acc : accs) acc = rule.accumulator(current, layout);
  for (std::size_t l = 0; l < layout.lanes; ++l) {
    for (std::size_t i = lanes[l]; i < lanes[l + 1]; ++i) {
      accs[l]->fold(*cohort[i].params, cohort[i].weight, cohort[i].staleness,
                    cohort[i].client);
    }
  }
  for (std::size_t l = 1; l < layout.lanes; ++l) accs[0]->merge(*accs[l]);
  return accs[0]->finish();
}

// --- lane partition --------------------------------------------------

TEST(FoldLanes, OffsetsPartitionTheCohortContiguously) {
  for (const std::size_t n : {0u, 1u, 5u, 8u, 9u, 64u, 1001u}) {
    const std::vector<std::size_t> offsets = fold_lane_offsets(n, kFoldLanes);
    ASSERT_EQ(offsets.size(), kFoldLanes + 1);
    EXPECT_EQ(offsets.front(), 0u);
    EXPECT_EQ(offsets.back(), n);
    for (std::size_t l = 0; l + 1 < offsets.size(); ++l) {
      EXPECT_LE(offsets[l], offsets[l + 1]);
    }
  }
}

TEST(FoldLanes, PartitionIsIndependentOfThreadPoolSize) {
  const std::vector<std::size_t> reference = fold_lane_offsets(37, kFoldLanes);
  ThreadPool::reset_global(2);
  EXPECT_EQ(fold_lane_offsets(37, kFoldLanes), reference);
  ThreadPool::reset_global(0);
}

// --- streaming vs dense, mean family ---------------------------------

TEST(StreamingAccumulator, WeightedAverageMatchesDenseToFloatRounding) {
  const ModelParameters a = make_params({1.0f, -2.0f, 3.0f}, 1.0f);
  const ModelParameters b = make_params({5.0f, 0.5f, -1.0f}, 2.0f);
  const ModelParameters c = make_params({-3.0f, 4.0f, 0.25f}, 3.0f);
  const std::vector<AggregationInput> cohort = {
      {&a, 6.0, 0, 1}, {&b, 3.0, 0, 2}, {&c, 1.0, 0, 3}};
  const WeightedAverage rule;
  const ModelParameters dense = rule.aggregate(ModelParameters{}, cohort);
  const ModelParameters streamed =
      stream_aggregate(rule, ModelParameters{}, cohort);
  EXPECT_LE(max_abs_diff(dense, streamed), 1e-5);
}

TEST(StreamingAccumulator, NormClippedMeanMatchesDense) {
  const ModelParameters current = make_params({0.0f, 0.0f}, 0.0f);
  const ModelParameters honest = make_params({0.1f, -0.1f}, 1.0f);
  const ModelParameters outlier = make_params({50.0f, 50.0f}, 1.0f);
  const std::vector<AggregationInput> cohort = {{&honest, 2.0, 0, 1},
                                                {&outlier, 1.0, 0, 2}};
  const NormClippedMean rule(1.0);
  const ModelParameters dense = rule.aggregate(current, cohort);
  const ModelParameters streamed = stream_aggregate(rule, current, cohort);
  EXPECT_LE(max_abs_diff(dense, streamed), 1e-5);
}

TEST(StreamingAccumulator, StalenessMixMatchesDense) {
  const ModelParameters current = make_params({1.0f, 1.0f}, 1.0f);
  const ModelParameters d1 = make_params({0.5f, -0.5f}, 0.0f);
  const ModelParameters d2 = make_params({-0.25f, 0.75f}, 0.0f);
  const std::vector<AggregationInput> cohort = {{&d1, 4.0, 0, 1},
                                                {&d2, 2.0, 3, 2}};
  StalenessPolicy policy;
  policy.poly_exponent = 1.0;
  const StalenessDiscountedMix rule(policy, 0.5);
  const ModelParameters dense = rule.aggregate(current, cohort);
  const ModelParameters streamed = stream_aggregate(rule, current, cohort);
  EXPECT_LE(max_abs_diff(dense, streamed), 1e-5);
}

// --- streaming vs dense, sketch family -------------------------------

TEST(StreamingAccumulator, MedianSketchWithinOneBinWidthOfDense) {
  // Values inside the sketch window around current = 0: the sketch
  // answer (a bucket midpoint) may be off the exact median by at most
  // one bin width = 2 * span / bins.
  const ModelParameters current = make_params({0.0f, 0.0f}, 0.0f);
  const ModelParameters a = make_params({-0.20f, 0.01f}, 0.02f);
  const ModelParameters b = make_params({0.05f, 0.10f}, 0.05f);
  const ModelParameters c = make_params({0.15f, -0.24f}, -0.10f);
  const std::vector<AggregationInput> cohort = {
      {&a, 1.0, 0, 1}, {&b, 1.0, 0, 2}, {&c, 1.0, 0, 3}};
  const int bins = 64;
  const double span = 0.25;
  const CoordinateMedian rule(bins, span);
  const ModelParameters dense = rule.aggregate(ModelParameters{}, cohort);
  const ModelParameters streamed = stream_aggregate(rule, current, cohort);
  EXPECT_LE(max_abs_diff(dense, streamed), 2.0 * span / bins + 1e-6);
}

TEST(StreamingAccumulator, TrimmedMeanSketchWithinOneBinWidthOfDense) {
  const ModelParameters current = make_params({0.0f}, 0.0f);
  std::vector<ModelParameters> members;
  for (int i = 0; i < 8; ++i) {
    members.push_back(make_params({-0.2f + 0.05f * static_cast<float>(i)},
                                  0.01f * static_cast<float>(i)));
  }
  std::vector<AggregationInput> cohort;
  for (std::size_t i = 0; i < members.size(); ++i) {
    cohort.push_back({&members[i], 1.0, 0, static_cast<int>(i)});
  }
  const int bins = 128;
  const double span = 0.3;
  const TrimmedMean rule(0.25, bins, span);
  const ModelParameters dense = rule.aggregate(ModelParameters{}, cohort);
  const ModelParameters streamed = stream_aggregate(rule, current, cohort);
  EXPECT_LE(max_abs_diff(dense, streamed), 2.0 * span / bins + 1e-6);
}

TEST(StreamingAccumulator, SketchClampsOutOfSpanValuesToEdgeBins) {
  // A huge outlier lands in the edge bin — it can shift WHICH bucket
  // holds the median only as far as any in-window value would, so the
  // sketch median stays inside the window (the robustness property).
  const ModelParameters current = make_params({0.0f}, 0.0f);
  const ModelParameters a = make_params({-0.05f}, 1.0f);
  const ModelParameters b = make_params({0.05f}, 1.0f);
  const ModelParameters outlier = make_params({1e6f}, 1.0f);
  const std::vector<AggregationInput> cohort = {
      {&a, 1.0, 0, 1}, {&b, 1.0, 0, 2}, {&outlier, 1.0, 0, 3}};
  const CoordinateMedian rule(32, 0.25);
  const ModelParameters streamed = stream_aggregate(rule, current, cohort);
  EXPECT_LE(std::abs(values_of(streamed)[0]), 0.25 + 1e-6);
}

// --- determinism across pools and shards -----------------------------

TEST(StreamingAccumulator, BitIdenticalAcrossThreadPoolSizesAndShards) {
  std::vector<ModelParameters> members;
  std::vector<AggregationInput> cohort;
  Rng rng(7);
  for (int i = 0; i < 23; ++i) {
    members.push_back(make_params(
        {static_cast<float>(rng.uniform(-0.2, 0.2)),
         static_cast<float>(rng.uniform(-0.2, 0.2))},
        static_cast<float>(i)));
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    cohort.push_back({&members[i], 1.0 + static_cast<double>(i), 0,
                      static_cast<int>(i)});
  }
  const ModelParameters current = make_params({0.0f, 0.0f}, 0.0f);
  const WeightedAverage mean;
  const CoordinateMedian median(32, 0.25);
  const ModelParameters mean_ref = stream_aggregate(mean, current, cohort, 1);
  const ModelParameters median_ref =
      stream_aggregate(median, current, cohort, 1);
  for (const std::size_t pool : {1u, 2u, 8u}) {
    ThreadPool::reset_global(pool);
    for (const std::size_t shards : {1u, 3u, 16u}) {
      EXPECT_TRUE(bit_identical(
          mean_ref, stream_aggregate(mean, current, cohort, shards)))
          << "weighted_average pool=" << pool << " shards=" << shards;
      EXPECT_TRUE(bit_identical(
          median_ref, stream_aggregate(median, current, cohort, shards)))
          << "coordinate_median pool=" << pool << " shards=" << shards;
    }
  }
  ThreadPool::reset_global(0);
}

// --- protocol guards -------------------------------------------------

TEST(StreamingAccumulator, FoldRejectsNonFiniteUpdateNamingTheClient) {
  const WeightedAverage rule;
  auto acc = rule.accumulator(ModelParameters{}, ShardLayout{});
  const ModelParameters bad =
      make_params({1.0f, std::numeric_limits<float>::quiet_NaN()});
  try {
    acc->fold(bad, 1.0, 0, 41);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("41"), std::string::npos)
        << e.what();
  }
}

TEST(StreamingAccumulator, FoldRejectsBadWeightsAndEmptyUpdates) {
  const WeightedAverage rule;
  auto acc = rule.accumulator(ModelParameters{}, ShardLayout{});
  const ModelParameters ok = make_params({1.0f});
  EXPECT_THROW(acc->fold(ok, -1.0, 0, 0), std::invalid_argument);
  EXPECT_THROW(acc->fold(ok, std::numeric_limits<double>::quiet_NaN(), 0, 0),
               std::invalid_argument);
  EXPECT_THROW(acc->fold(ModelParameters{}, 1.0, 0, 0),
               std::invalid_argument);
}

TEST(StreamingAccumulator, FinishOnZeroFoldsThrowsLikeTheDenseEmptyCohort) {
  const WeightedAverage rule;
  auto acc = rule.accumulator(ModelParameters{}, ShardLayout{});
  EXPECT_EQ(acc->folds(), 0u);
  EXPECT_THROW(acc->finish(), std::invalid_argument);
}

TEST(StreamingAccumulator, MergeCountsFoldsAndEmptiesThePeer) {
  const WeightedAverage rule;
  auto a = rule.accumulator(ModelParameters{}, ShardLayout{});
  auto b = rule.accumulator(ModelParameters{}, ShardLayout{});
  const ModelParameters u = make_params({1.0f});
  a->fold(u, 1.0, 0, 0);
  b->fold(u, 1.0, 0, 1);
  b->fold(u, 1.0, 0, 2);
  a->merge(*b);
  EXPECT_EQ(a->folds(), 3u);
  EXPECT_EQ(b->folds(), 0u);
}

TEST(StreamingAccumulator, MergeRejectsAForeignAccumulatorType) {
  const WeightedAverage mean;
  const NormClippedMean clipped(1.0);
  const ModelParameters current = make_params({0.0f});
  auto a = mean.accumulator(current, ShardLayout{});
  auto b = clipped.accumulator(current, ShardLayout{});
  EXPECT_THROW(a->merge(*b), std::invalid_argument);
}

// --- buffered accumulator: finish() is the dense aggregate() ---------

// Folds `cohort` into buffered accumulators over `lanes` fold lanes,
// merges them in lane order and finishes.
ModelParameters buffered_aggregate(const AggregationRule& rule,
                                   const ModelParameters& current,
                                   const std::vector<AggregationInput>& cohort,
                                   std::size_t lanes) {
  const std::vector<std::size_t> offsets =
      fold_lane_offsets(cohort.size(), lanes);
  std::vector<std::unique_ptr<StreamingAccumulator>> accs(lanes);
  for (auto& acc : accs) acc = rule.buffered_accumulator(current);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = offsets[l]; i < offsets[l + 1]; ++i) {
      accs[l]->fold(*cohort[i].params, cohort[i].weight, cohort[i].staleness,
                    cohort[i].client);
    }
  }
  for (std::size_t l = 1; l < lanes; ++l) accs[0]->merge(*accs[l]);
  return accs[0]->finish();
}

// A random cohort of n members (client ids 100 + i, mixed weights and
// staleness) plus a `current` of the same structure.
struct RandomCohort {
  ModelParameters current;
  std::vector<ModelParameters> members;
  std::vector<AggregationInput> inputs;
};

RandomCohort random_cohort(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto draw = [&](float scale) {
    std::vector<float> v(5);
    for (float& x : v) x = scale * static_cast<float>(rng.uniform(-1.0, 1.0));
    return make_params(v, static_cast<float>(rng.uniform(0.0, 2.0)));
  };
  RandomCohort c;
  c.current = draw(0.1f);
  for (std::size_t i = 0; i < n; ++i) c.members.push_back(draw(1.0f));
  for (std::size_t i = 0; i < n; ++i) {
    c.inputs.push_back({&c.members[i], rng.uniform(0.5, 4.0),
                        static_cast<int>(i % 3), static_cast<int>(100 + i)});
  }
  return c;
}

TEST(BufferedAccumulator, FinishEqualsAggregateForEveryRuleAndLaneSplit) {
  AggregationConfig config;
  config.krum_f = 1;  // n >= 2f + 3 = 5 for the Krum family
  config.clip_norm = 0.5;
  const std::vector<std::string> names = AggregationRegistry::global().names();
  ASSERT_GE(names.size(), 7u);
  for (const std::string& name : names) {
    const std::unique_ptr<AggregationRule> rule =
        AggregationRegistry::global().create(name, config);
    // Cohort sizes that leave partial (and, at 8 lanes, empty) lanes.
    for (const std::size_t n : {5u, 7u, 13u}) {
      const RandomCohort c = random_cohort(n, 1000 + n);
      const ModelParameters dense = rule->aggregate(c.current, c.inputs);
      for (const std::size_t lanes : {1u, 3u, 8u}) {
        SCOPED_TRACE(name + " n=" + std::to_string(n) +
                     " lanes=" + std::to_string(lanes));
        const ModelParameters buffered =
            buffered_aggregate(*rule, c.current, c.inputs, lanes);
        ASSERT_TRUE(dense.structurally_equal(buffered));
        for (std::size_t e = 0; e < dense.entries().size(); ++e) {
          const Tensor& want = dense.entries()[e].value;
          const Tensor& got = buffered.entries()[e].value;
          for (std::int64_t i = 0; i < want.numel(); ++i) {
            EXPECT_EQ(got[i], want[i]) << "entry " << e << " index " << i;
          }
        }
      }
    }
  }
}

TEST(BufferedAccumulator, GuardErrorsNameTheSameClientAsAggregate) {
  AggregationConfig config;
  config.krum_f = 1;
  for (const std::string& name : AggregationRegistry::global().names()) {
    const std::unique_ptr<AggregationRule> rule =
        AggregationRegistry::global().create(name, config);
    RandomCohort c = random_cohort(7, 77);
    c.members[4] = make_params(
        {1.0f, std::numeric_limits<float>::quiet_NaN(), 0.0f, 0.0f, 0.0f});
    std::string dense_error;
    try {
      rule->aggregate(c.current, c.inputs);
    } catch (const std::invalid_argument& e) {
      dense_error = e.what();
    }
    ASSERT_NE(dense_error.find("client 104"), std::string::npos)
        << name << ": " << dense_error;
    for (const std::size_t lanes : {1u, 3u, 8u}) {
      try {
        buffered_aggregate(*rule, c.current, c.inputs, lanes);
        FAIL() << name << ": expected invalid_argument";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), dense_error) << name;
      }
    }
  }
}

TEST(BufferedAccumulator, IsTheDefaultForRulesWithoutANativeForm) {
  // Krum scores the cohort as a whole; its accumulator() is the
  // buffered one rather than an error.
  const Krum krum(1);
  const RandomCohort c = random_cohort(6, 5);
  std::unique_ptr<StreamingAccumulator> acc =
      krum.accumulator(c.current, ShardLayout{});
  for (const AggregationInput& in : c.inputs) {
    acc->fold(*in.params, in.weight, in.staleness, in.client);
  }
  EXPECT_EQ(acc->folds(), 6u);
  EXPECT_TRUE(
      bit_identical(acc->finish(), krum.aggregate(c.current, c.inputs)));
}

TEST(BufferedAccumulator, MergeRejectsAnotherRulesAccumulator) {
  const Krum krum(1);
  const MultiKrum multi(1, 0);
  const ModelParameters current = make_params({0.0f});
  auto a = krum.buffered_accumulator(current);
  auto b = multi.buffered_accumulator(current);
  EXPECT_THROW(a->merge(*b), std::invalid_argument);
}

TEST(StreamingAccumulator, ClippingAndSketchRulesRequireANonEmptyCurrent) {
  EXPECT_THROW(
      NormClippedMean(1.0).accumulator(ModelParameters{}, ShardLayout{}),
      std::invalid_argument);
  EXPECT_THROW(
      CoordinateMedian().accumulator(ModelParameters{}, ShardLayout{}),
      std::invalid_argument);
}

TEST(CoordinateMedian, RejectsBadSketchKnobs) {
  EXPECT_THROW(CoordinateMedian(1, 0.25), std::invalid_argument);
  EXPECT_THROW(CoordinateMedian(32, 0.0), std::invalid_argument);
  EXPECT_THROW(CoordinateMedian(32, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

// --- channel: move collect and streaming collect ---------------------

TEST(Channel, CollectStreamingMatchesPerMessageUploadsAndTheirBilling) {
  const std::size_t n = 13;
  std::vector<std::size_t> senders(n);
  std::vector<ModelParameters> updates;
  for (std::size_t i = 0; i < n; ++i) {
    senders[i] = 2 * i;
    updates.push_back(
        make_params({static_cast<float>(i) * 0.5f, -1.0f}, 2.0f));
  }
  const std::vector<const ModelParameters*> references(n, nullptr);
  CommConfig config;
  config.uplink = CodecKind::kInt8Quant;

  Channel single(config);
  std::vector<ModelParameters> sent;
  for (std::size_t i = 0; i < n; ++i) {
    sent.push_back(single.send_up(senders[i], updates[i], nullptr));
  }
  for (const std::size_t lanes :
       {std::size_t{1}, std::size_t{3}, kFoldLanes}) {
    Channel streaming(config);
    std::vector<ModelParameters> folded(n);
    streaming.collect_streaming(
        senders, references, fold_lane_offsets(n, lanes),
        [&](std::size_t i) { return updates[i]; },
        [&](std::size_t, std::size_t i, ModelParameters&& decoded) {
          folded[i] = std::move(decoded);
        });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bit_identical(sent[i], folded[i]))
          << "lanes " << lanes << " position " << i;
    }
    EXPECT_EQ(single.stats().uplink_bytes, streaming.stats().uplink_bytes);
    EXPECT_EQ(single.stats().uplink_messages,
              streaming.stats().uplink_messages);
    EXPECT_EQ(single.stats().raw_uplink_bytes,
              streaming.stats().raw_uplink_bytes);
  }
}

TEST(Channel, CollectStreamingValidatesTheLaneOffsets) {
  Channel channel{CommConfig{}};
  const std::vector<std::size_t> senders = {0, 1};
  const std::vector<const ModelParameters*> references(2, nullptr);
  const auto produce = [](std::size_t) { return make_params({1.0f}); };
  const auto consume = [](std::size_t, std::size_t, ModelParameters&&) {};
  EXPECT_THROW(
      channel.collect_streaming(senders, references, {0}, produce, consume),
      std::invalid_argument);
  EXPECT_THROW(
      channel.collect_streaming(senders, references, {0, 1}, produce,
                                consume),
      std::invalid_argument);
  EXPECT_THROW(
      channel.collect_streaming(senders, references, {1, 0, 2}, produce,
                                consume),
      std::invalid_argument);
}

TEST(Channel, CollectStreamingRethrowsAProduceError) {
  Channel channel{CommConfig{}};
  const std::size_t n = 5;
  std::vector<std::size_t> senders(n);
  for (std::size_t i = 0; i < n; ++i) senders[i] = i;
  const std::vector<const ModelParameters*> references(n, nullptr);
  EXPECT_THROW(
      channel.collect_streaming(
          senders, references, fold_lane_offsets(n, kFoldLanes),
          [&](std::size_t i) -> ModelParameters {
            if (i == 3) throw std::runtime_error("client 3 exploded");
            return make_params({1.0f});
          },
          [](std::size_t, std::size_t, ModelParameters&&) {}),
      std::runtime_error);
}

// --- fast client construction ----------------------------------------

TEST(ClientInitSchema, FastInitSkipsTheInitReplayAndStaysDeterministic) {
  const ClientDataset data = make_synthetic_client(1, 0.4f, 11);
  ModelFactory factory = make_model_factory(ModelKind::kFLNet, 2);
  auto pool = std::make_shared<ModelPool>(factory);
  // Rng::fork advances the parent stream, so identical per-client
  // streams come from identically-seeded generators, not repeated
  // forks of one parent.
  Client replay(1, &data, pool, Rng(123));
  Client fast(1, &data, pool, Rng(123), ClientInitSchema::kFastInit);
  Client fast_twin(1, &data, pool, Rng(123), ClientInitSchema::kFastInit);
  EXPECT_EQ(replay.init_schema(), ClientInitSchema::kReplayInit);
  EXPECT_EQ(fast.init_schema(), ClientInitSchema::kFastInit);

  Rng init_rng(9);
  const ModelParameters start = initial_model_parameters(factory, init_rng);
  ClientTrainConfig cfg;
  cfg.steps = 2;
  cfg.batch_size = 2;
  cfg.mu = 0.0;
  const ModelParameters from_fast = fast.local_update(start, cfg);
  // Same seed, same schema: bit-identical training.
  EXPECT_TRUE(bit_identical(from_fast, fast_twin.local_update(start, cfg)));
  // The replay schema consumed one model init from the stream first, so
  // its batch sampling diverges — the schemas are distinct rng
  // schedules, which is exactly why the enum is versioned.
  EXPECT_FALSE(bit_identical(from_fast, replay.local_update(start, cfg)));
}

// --- importance_sample participation ---------------------------------

TEST(ImportanceSample, IsDeterministicAndSkipsZeroWeightClients) {
  const std::vector<double> weights = {5.0, 0.0, 3.0, 2.0, 0.0, 7.0};
  const auto provider = [&](std::size_t k) { return weights[k]; };
  ParticipationContext ctx;
  ctx.num_clients = weights.size();
  ImportanceSample a(3, provider, 99);
  ImportanceSample b(3, provider, 99);
  for (int round = 0; round < 5; ++round) {
    ctx.round = round;
    const std::vector<std::size_t> cohort = a.select(ctx);
    EXPECT_EQ(cohort, b.select(ctx));
    ASSERT_EQ(cohort.size(), 3u);
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      EXPECT_NE(cohort[i], 1u);  // zero weight: never sampled
      EXPECT_NE(cohort[i], 4u);
      if (i > 0) EXPECT_LT(cohort[i - 1], cohort[i]);  // strictly ascending
    }
  }
}

TEST(ImportanceSample, SampleSizeAtOrAboveKDegeneratesToFull) {
  ImportanceSample policy(10, [](std::size_t) { return 1.0; }, 1);
  ParticipationContext ctx;
  ctx.num_clients = 4;
  const std::vector<std::size_t> cohort = policy.select(ctx);
  EXPECT_EQ(cohort, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ImportanceSample, RejectsBadConstructionAndBadWeights) {
  EXPECT_THROW(ImportanceSample(0, [](std::size_t) { return 1.0; }),
               std::invalid_argument);
  EXPECT_THROW(ImportanceSample(3, ImportanceSample::WeightProvider{}),
               std::invalid_argument);

  ParticipationContext ctx;
  ctx.num_clients = 4;
  ImportanceSample negative(2, [](std::size_t k) {
    return k == 2 ? -1.0 : 1.0;
  });
  try {
    negative.select(ctx);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("client 2"), std::string::npos)
        << e.what();
  }
  ImportanceSample all_zero(2, [](std::size_t) { return 0.0; });
  EXPECT_THROW(all_zero.select(ctx), std::invalid_argument);
}

TEST(ImportanceSample, WiredThroughTheDeclarativeConfig) {
  EXPECT_EQ(to_string(ParticipationKind::kImportanceSample),
            "importance_sample");
  ParticipationConfig config;
  config.kind = ParticipationKind::kImportanceSample;
  config.sample_size = 2;
  const auto policy = make_participation_policy(
      config, nullptr, [](std::size_t) { return 1.0; });
  EXPECT_EQ(policy->name(), "importance_sample(2)");
  // Missing provider fails at construction, not at the first round.
  EXPECT_THROW(make_participation_policy(config), std::invalid_argument);
}

TEST(ImportanceSample, EndToEndRunPrefersDataRichClients) {
  // 6 clients, client 5 carrying 4x the samples of the rest: with
  // importance sampling it must appear in (nearly) every cohort.
  SyntheticWorldOptions options;
  options.num_clients = 6;
  SyntheticWorld w = make_synthetic_world(21, options);
  std::vector<ClientDataset> data = std::move(w.data);
  data[5] = make_synthetic_client(6, 0.6f, 77, /*train_samples=*/24);
  auto pool = std::make_shared<ModelPool>(w.factory);
  Rng rng(5);
  std::vector<Client> clients;
  for (std::size_t k = 0; k < data.size(); ++k) {
    clients.emplace_back(static_cast<int>(k) + 1, &data[k], pool,
                         rng.fork(k));
  }
  FLRunOptions opts;
  opts.rounds = 8;
  opts.client.steps = 1;
  opts.client.batch_size = 2;
  opts.participation.kind = ParticipationKind::kImportanceSample;
  opts.participation.sample_size = 2;
  SimReport report;
  opts.sim_report = &report;
  int rich_rounds = 0;
  ChannelStats comm;
  opts.comm_stats = &comm;
  FedAvg algo;
  algo.run(clients, w.factory, opts);
  // Every round billed exactly C = 2 uplinks; count client 5's.
  ASSERT_EQ(comm.rounds.size(), 8u);
  for (const RoundCommStats& r : comm.rounds) {
    EXPECT_EQ(r.uplink_messages, 2u);
  }
  (void)rich_rounds;
}

// --- end-to-end streaming rounds -------------------------------------

FLRunOptions small_world_options(int rounds) {
  FLRunOptions opts;
  opts.rounds = rounds;
  opts.client.steps = 2;
  opts.client.batch_size = 2;
  opts.client.mu = 0.0;
  opts.seed = 7;
  return opts;
}

TEST(StreamingRounds, FedAvgStreamingTracksDenseAndIsPoolSizeInvariant) {
  SyntheticWorldOptions options;
  options.num_clients = 5;
  FLRunOptions dense_opts = small_world_options(3);
  FLRunOptions streaming_opts = dense_opts;
  streaming_opts.aggregation.streaming = true;

  SyntheticWorld dense_world = make_synthetic_world(31, options);
  FedAvg dense_algo;
  const std::vector<ModelParameters> dense =
      dense_algo.run(dense_world.clients, dense_world.factory, dense_opts);

  std::vector<ModelParameters> streamed_by_pool;
  for (const std::size_t pool : {1u, 2u, 8u}) {
    ThreadPool::reset_global(pool);
    SyntheticWorld w = make_synthetic_world(31, options);
    FedAvg algo;
    streamed_by_pool.push_back(
        algo.run(w.clients, w.factory, streaming_opts).front());
  }
  ThreadPool::reset_global(0);
  // Streaming is pool-size invariant bit for bit...
  EXPECT_TRUE(bit_identical(streamed_by_pool[0], streamed_by_pool[1]));
  EXPECT_TRUE(bit_identical(streamed_by_pool[0], streamed_by_pool[2]));
  // ...and tracks the dense result to accumulated float rounding.
  EXPECT_LE(max_abs_diff(dense.front(), streamed_by_pool[0]), 1e-4);
}

TEST(StreamingRounds, AlphaSyncStreamingFastPathMatchesThePairwiseMix) {
  SyntheticWorldOptions options;
  options.num_clients = 4;
  FLRunOptions dense_opts = small_world_options(2);
  FLRunOptions streaming_opts = dense_opts;
  streaming_opts.aggregation.streaming = true;

  SyntheticWorld a = make_synthetic_world(13, options);
  AlphaPortionSync dense_algo(0.7);
  const std::vector<ModelParameters> dense =
      dense_algo.run(a.clients, a.factory, dense_opts);
  SyntheticWorld b = make_synthetic_world(13, options);
  AlphaPortionSync streaming_algo(0.7);
  const std::vector<ModelParameters> streamed =
      streaming_algo.run(b.clients, b.factory, streaming_opts);
  ASSERT_EQ(dense.size(), streamed.size());
  for (std::size_t k = 0; k < dense.size(); ++k) {
    EXPECT_LE(max_abs_diff(dense[k], streamed[k]), 1e-4) << "client " << k;
  }
}

TEST(StreamingRounds, AsyncFedAvgStreamingTracksTheBufferedPath) {
  SyntheticWorldOptions options;
  options.num_clients = 4;
  FLRunOptions dense_opts = small_world_options(4);
  FLRunOptions streaming_opts = dense_opts;
  streaming_opts.aggregation.streaming = true;
  AsyncConfig config;
  config.buffer_size = 2;
  config.server_mix = 0.5;

  SyntheticWorld a = make_synthetic_world(17, options);
  AsyncFedAvg dense_algo(config);
  const std::vector<ModelParameters> dense =
      dense_algo.run(a.clients, a.factory, dense_opts);
  SyntheticWorld b = make_synthetic_world(17, options);
  AsyncFedAvg streaming_algo(config);
  const std::vector<ModelParameters> streamed =
      streaming_algo.run(b.clients, b.factory, streaming_opts);
  EXPECT_LE(max_abs_diff(dense.front(), streamed.front()), 1e-4);
}

TEST(StreamingRounds, AnomalyDetectionPinsTheDensePath) {
  // Detection needs the materialized cohort; opting into streaming with
  // a detector enabled must transparently stay dense (bit-identical to
  // the dense run), not fail.
  SyntheticWorldOptions options;
  options.num_clients = 4;
  FLRunOptions dense_opts = small_world_options(2);
  dense_opts.anomaly.enabled = true;
  FLRunOptions streaming_opts = dense_opts;
  streaming_opts.aggregation.streaming = true;

  SyntheticWorld a = make_synthetic_world(19, options);
  FedAvg dense_algo;
  const std::vector<ModelParameters> dense =
      dense_algo.run(a.clients, a.factory, dense_opts);
  SyntheticWorld b = make_synthetic_world(19, options);
  FedAvg streaming_algo;
  const std::vector<ModelParameters> streamed =
      streaming_algo.run(b.clients, b.factory, streaming_opts);
  EXPECT_TRUE(bit_identical(dense.front(), streamed.front()));
}

}  // namespace
}  // namespace fleda
