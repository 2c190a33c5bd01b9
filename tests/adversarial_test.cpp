// Adversarial arms-race tests: the Krum / MultiKrum selection math and
// cohort-size guards, the pool-parallel pairwise-distance kernel under
// them (bit-identical to the one-pair distance at every pool size), the
// AnomalyDetector's norm + cosine flagging, its precision/recall on the
// stock sign-flip scenario and its verdicts across pool sizes, the
// ReputationBook weight dynamics and the ReputationWeighted sampler
// they drive (including determinism across thread-pool sizes), the
// adaptive (tolerance-probing) and colluding attacker behaviors, the
// diurnal availability scenario, the AttackSpec / periodic-dropout
// input validation, and AsyncFedAvg's staleness-aware dispatch gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/aggregation.hpp"
#include "fl/anomaly.hpp"
#include "fl/assigned_clustering.hpp"
#include "fl/async_fedavg.hpp"
#include "fl/fedavg.hpp"
#include "fl/ifca.hpp"
#include "fl/participation.hpp"
#include "fl/synthetic.hpp"
#include "obs/telemetry.hpp"
#include "sim/profile.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

ModelParameters make_params(const std::vector<float>& weights_values) {
  ModelParameters p;
  ParameterEntry w;
  w.name = "w";
  w.value = Tensor(Shape{static_cast<std::int64_t>(weights_values.size())});
  for (std::size_t i = 0; i < weights_values.size(); ++i) {
    w.value[static_cast<std::int64_t>(i)] = weights_values[i];
  }
  p.mutable_entries().push_back(std::move(w));
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

// --- Krum / MultiKrum ------------------------------------------------

// Five 1-d updates {0, 1, 2, 10, 100}, f = 1: each member is scored by
// its squared distances to its n - f - 2 = 2 nearest neighbors.
//   0 -> 1 + 4 = 5;  1 -> 1 + 1 = 2;  2 -> 1 + 4 = 5;
//   10 -> 64 + 81 = 145;  100 -> 8100 + 9604 = 17704.
std::vector<ModelParameters> krum_fixture() {
  std::vector<ModelParameters> cohort;
  for (float v : {0.0f, 1.0f, 2.0f, 10.0f, 100.0f}) {
    cohort.push_back(make_params({v}));
  }
  return cohort;
}

std::vector<AggregationInput> as_inputs(
    const std::vector<ModelParameters>& cohort) {
  std::vector<AggregationInput> inputs;
  for (const ModelParameters& p : cohort) inputs.push_back({&p, 1.0, 0});
  return inputs;
}

TEST(KrumRule, PicksTheUpdateDeepestInTheHonestCluster) {
  const std::vector<ModelParameters> cohort = krum_fixture();
  const ModelParameters m =
      Krum(1).aggregate(ModelParameters{}, as_inputs(cohort));
  // Score 2 is the minimum: the winner is the update "1", verbatim.
  EXPECT_FLOAT_EQ(values_of(m)[0], 1.0f);
}

TEST(KrumRule, SelectionIgnoresSampleCountWeights) {
  const std::vector<ModelParameters> cohort = krum_fixture();
  std::vector<AggregationInput> inputs = as_inputs(cohort);
  inputs[4].weight = 1e9;  // the far outlier must still lose
  const ModelParameters m = Krum(1).aggregate(ModelParameters{}, inputs);
  EXPECT_FLOAT_EQ(values_of(m)[0], 1.0f);
}

TEST(KrumRule, RefusesCohortsBelowTwoFPlusThree) {
  const std::vector<ModelParameters> cohort = krum_fixture();
  std::vector<AggregationInput> inputs = as_inputs(cohort);
  inputs.pop_back();  // n = 4 < 2f + 3 = 5
  try {
    Krum(1).aggregate(ModelParameters{}, inputs);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2f + 3"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Krum(-1), std::invalid_argument);
}

TEST(MultiKrumRule, AveragesTheMLowestScoredUpdates) {
  const std::vector<ModelParameters> cohort = krum_fixture();
  // Scores {5, 2, 5, 145, 17704}: the two lowest are "1" (score 2) and
  // "0" (score 5, the tie at 5 breaks by cohort index).
  const ModelParameters m =
      MultiKrum(1, 2).aggregate(ModelParameters{}, as_inputs(cohort));
  EXPECT_FLOAT_EQ(values_of(m)[0], 0.5f);
  // m = 0 selects n - f - 2 = 2 automatically: the same result.
  const ModelParameters auto_m =
      MultiKrum(1, 0).aggregate(ModelParameters{}, as_inputs(cohort));
  EXPECT_TRUE(bit_identical(m, auto_m));
}

TEST(MultiKrumRule, ValidatesM) {
  EXPECT_THROW(MultiKrum(1, -1), std::invalid_argument);
  const std::vector<ModelParameters> cohort = krum_fixture();
  try {
    MultiKrum(1, 3).aggregate(ModelParameters{}, as_inputs(cohort));
    FAIL() << "expected invalid_argument";  // m = 3 > n - f - 2 = 2
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n - f - 2"), std::string::npos)
        << e.what();
  }
}

// --- pairwise distance kernel ----------------------------------------

// A multi-entry snapshot with odd-sized tensors and two buffers, so the
// kernel's tiles cross entry boundaries and buffers count too.
ModelParameters random_snapshot(Rng& rng) {
  ModelParameters p;
  const struct {
    const char* name;
    bool is_buffer;
    Shape shape;
  } layout[] = {{"conv.weight", false, Shape{3, 4, 5}},
                {"conv.bias", false, Shape{7}},
                {"bn.running_mean", true, Shape{5}},
                {"bn.running_var", true, Shape{33}}};
  for (const auto& l : layout) {
    ParameterEntry e;
    e.name = l.name;
    e.is_buffer = l.is_buffer;
    e.value = Tensor(l.shape);
    for (std::int64_t i = 0; i < e.value.numel(); ++i) {
      e.value[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    p.mutable_entries().push_back(std::move(e));
  }
  return p;
}

std::vector<ModelParameters> random_cohort(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ModelParameters> cohort;
  for (std::size_t i = 0; i < n; ++i) cohort.push_back(random_snapshot(rng));
  return cohort;
}

std::vector<const ModelParameters*> pointers(
    const std::vector<ModelParameters>& cohort) {
  std::vector<const ModelParameters*> out;
  for (const ModelParameters& p : cohort) out.push_back(&p);
  return out;
}

const std::size_t kCohortSizes[] = {3, 5, 7, 13, 33};

TEST(PairwiseDistances, MatchPerPairDistanceBitForBit) {
  for (std::size_t n : kCohortSizes) {
    const std::vector<ModelParameters> cohort = random_cohort(n, 100 + n);
    const std::vector<double> dist =
        ModelParameters::pairwise_squared_l2_distances(pointers(cohort));
    ASSERT_EQ(dist.size(), n * n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(dist[i * n + i], 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        // The upper-triangle pair is the one computed; the mirror cell
        // holds the same value.
        const std::size_t lo = std::min(i, j), hi = std::max(i, j);
        EXPECT_EQ(dist[i * n + j], cohort[lo].squared_l2_distance(cohort[hi]))
            << "n=" << n << " (" << i << ", " << j << ")";
      }
    }
  }
  EXPECT_TRUE(ModelParameters::pairwise_squared_l2_distances({}).empty());
  const std::vector<ModelParameters> one = random_cohort(1, 9);
  EXPECT_EQ(ModelParameters::pairwise_squared_l2_distances(pointers(one)),
            std::vector<double>{0.0});
}

TEST(PairwiseDistances, IdenticalAcrossPoolSizesAndNesting) {
  for (std::size_t n : kCohortSizes) {
    const std::vector<ModelParameters> cohort = random_cohort(n, 200 + n);
    const std::vector<const ModelParameters*> ptrs = pointers(cohort);
    std::vector<std::vector<double>> results;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      ThreadPool::reset_global(threads);
      results.push_back(ModelParameters::pairwise_squared_l2_distances(ptrs));
    }
    // From inside an outer parallel_for the pool is not re-entered: the
    // kernel runs its tiles serially on the calling worker.
    std::vector<std::vector<double>> nested(4);
    parallel_for(nested.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        nested[t] = ModelParameters::pairwise_squared_l2_distances(ptrs);
      }
    });
    ThreadPool::reset_global(0);
    EXPECT_EQ(results[0], results[1]) << "n=" << n;
    EXPECT_EQ(results[0], results[2]) << "n=" << n;
    for (const std::vector<double>& r : nested) {
      EXPECT_EQ(results[0], r) << "n=" << n;
    }
  }
}

TEST(PairwiseDistances, KrumRulesAreIdenticalAcrossPoolSizes) {
  for (std::size_t n : {std::size_t{7}, std::size_t{13}, std::size_t{33}}) {
    const std::vector<ModelParameters> cohort = random_cohort(n, 300 + n);
    std::vector<ModelParameters> krum, multi;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      ThreadPool::reset_global(threads);
      krum.push_back(Krum(2).aggregate(ModelParameters{}, as_inputs(cohort)));
      multi.push_back(
          MultiKrum(2, 0).aggregate(ModelParameters{}, as_inputs(cohort)));
    }
    ThreadPool::reset_global(0);
    for (std::size_t t = 1; t < krum.size(); ++t) {
      EXPECT_TRUE(bit_identical(krum[0], krum[t])) << "n=" << n;
      EXPECT_TRUE(bit_identical(multi[0], multi[t])) << "n=" << n;
    }
  }
}

TEST(PairwiseDistances, RejectsStructureMismatch) {
  std::vector<ModelParameters> cohort = random_cohort(5, 400);
  cohort[3].mutable_entries()[2].is_buffer = false;  // same shape, new role
  try {
    ModelParameters::pairwise_squared_l2_distances(pointers(cohort));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("structure mismatch"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("snapshot 3"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(cohort[0].squared_l2_distance(cohort[3]),
               std::invalid_argument);
  EXPECT_THROW(ModelParameters::pairwise_squared_l2_distances(
                   {&cohort[0], nullptr, &cohort[1]}),
               std::invalid_argument);
}

// --- AnomalyDetector -------------------------------------------------

TEST(AnomalyDetectorTest, FlagsInflatedNormsAndReversedDeltas) {
  AnomalyConfig config;
  config.enabled = true;
  AnomalyDetector detector(config);

  // Eight honest deltas near {1, 0}, one inflated to norm 30 (> 3x the
  // median), one reversed at an honest-looking norm (cosine -1).
  std::vector<ModelParameters> deltas;
  std::vector<std::size_t> clients;
  for (std::size_t k = 0; k < 8; ++k) {
    deltas.push_back(
        make_params({1.0f, 0.1f * static_cast<float>(k % 3)}));
    clients.push_back(k);
  }
  deltas.push_back(make_params({30.0f, 0.0f}));
  clients.push_back(8);
  deltas.push_back(make_params({-1.0f, 0.0f}));
  clients.push_back(9);

  std::vector<const ModelParameters*> ptrs;
  for (const ModelParameters& d : deltas) ptrs.push_back(&d);
  const std::vector<UpdateVerdict> verdicts =
      detector.score_cohort(clients, ptrs);

  ASSERT_EQ(verdicts.size(), 10u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(verdicts[i].flagged) << "honest client " << i;
  }
  EXPECT_TRUE(verdicts[8].flagged);  // norm outlier
  EXPECT_TRUE(verdicts[9].flagged);  // reversed direction
  EXPECT_LT(verdicts[9].cosine, -0.2);
  EXPECT_NEAR(verdicts[8].norm, 30.0, 1e-6);
  // Tallies accumulate per client; the baseline is the cohort median.
  EXPECT_EQ(detector.scored(8), 1u);
  EXPECT_EQ(detector.flagged(8), 1u);
  EXPECT_EQ(detector.flagged(0), 0u);
  EXPECT_EQ(detector.total_scored(), 10u);
  EXPECT_EQ(detector.total_flagged(), 2u);
  EXPECT_GT(detector.baseline_norm(), 0.0);
}

TEST(AnomalyDetectorTest, VerdictsAreIdenticalAcrossPoolSizes) {
  // 33 multi-entry deltas around one shared direction, three inflated
  // and three reversed: the norm and cosine passes run on the pool, the
  // verdicts must not notice.
  const ModelParameters direction = random_cohort(1, 499).front();
  std::vector<ModelParameters> deltas = random_cohort(33, 500);
  for (ModelParameters& d : deltas) {
    d.scale(0.3);
    d.add_scaled(direction, 1.0);
  }
  for (std::size_t k : {std::size_t{4}, std::size_t{17}, std::size_t{30}}) {
    deltas[k].scale(25.0);
  }
  for (std::size_t k : {std::size_t{2}, std::size_t{11}, std::size_t{23}}) {
    deltas[k].scale(-1.0);
  }
  std::vector<std::size_t> clients(deltas.size());
  for (std::size_t k = 0; k < clients.size(); ++k) clients[k] = 3 * k;
  std::vector<std::vector<UpdateVerdict>> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool::reset_global(threads);
    AnomalyConfig config;
    config.enabled = true;
    AnomalyDetector detector(config);
    runs.push_back(detector.score_cohort(clients, pointers(deltas)));
  }
  ThreadPool::reset_global(0);
  for (std::size_t t = 1; t < runs.size(); ++t) {
    ASSERT_EQ(runs[t].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[t][i].client, runs[0][i].client);
      EXPECT_EQ(runs[t][i].flagged, runs[0][i].flagged) << i;
      EXPECT_EQ(runs[t][i].norm, runs[0][i].norm) << i;
      EXPECT_EQ(runs[t][i].cosine, runs[0][i].cosine) << i;
    }
  }
  EXPECT_TRUE(runs[0][4].flagged);
  EXPECT_TRUE(runs[0][11].flagged);
}

TEST(AnomalyDetectorTest, TinyCohortsAreNotScored) {
  AnomalyDetector detector;  // min_cohort defaults to 4
  const ModelParameters a = make_params({100.0f});
  const ModelParameters b = make_params({1.0f});
  const std::vector<UpdateVerdict> verdicts =
      detector.score_cohort({0, 1}, {&a, &b});
  EXPECT_FALSE(verdicts[0].flagged);
  EXPECT_FALSE(verdicts[1].flagged);
  EXPECT_EQ(detector.total_scored(), 0u);
}

TEST(AnomalyDetectorTest, ConfigAndInputsAreValidated) {
  AnomalyConfig bad;
  bad.norm_factor = 1.0;
  EXPECT_THROW(AnomalyDetector{bad}, std::invalid_argument);
  bad = AnomalyConfig{};
  bad.cosine_threshold = 1.0;
  EXPECT_THROW(AnomalyDetector{bad}, std::invalid_argument);
  bad = AnomalyConfig{};
  bad.baseline_decay = 1.0;
  EXPECT_THROW(AnomalyDetector{bad}, std::invalid_argument);
  bad = AnomalyConfig{};
  bad.min_cohort = 1;
  EXPECT_THROW(AnomalyDetector{bad}, std::invalid_argument);

  AnomalyDetector detector;
  const ModelParameters a = make_params({1.0f});
  EXPECT_THROW(detector.score_cohort({0, 1}, {&a}), std::invalid_argument);
}

// --- ReputationBook --------------------------------------------------

TEST(ReputationBookTest, PenaltyRecoveryAndFloor) {
  ReputationBook book;  // penalty 0.25, reward 0.05, floor 0.02
  EXPECT_DOUBLE_EQ(book.weight(3), 1.0);  // unobserved clients weigh 1
  book.observe(3, /*flagged=*/true);
  EXPECT_DOUBLE_EQ(book.weight(3), 0.25);
  book.observe(3, true);
  EXPECT_DOUBLE_EQ(book.weight(3), 0.0625);
  for (int i = 0; i < 10; ++i) book.observe(3, true);
  EXPECT_DOUBLE_EQ(book.weight(3), 0.02);  // clamped at the floor
  EXPECT_EQ(book.flags(3), 12u);
  // Clean observations recover a fraction of the remaining gap to 1.
  book.observe(3, false);
  EXPECT_DOUBLE_EQ(book.weight(3), 0.02 + 0.05 * (1.0 - 0.02));
  for (int i = 0; i < 500; ++i) book.observe(3, false);
  EXPECT_NEAR(book.weight(3), 1.0, 1e-9);
  EXPECT_EQ(book.known_clients(), 4u);
}

TEST(ReputationBookTest, ConfigIsValidated) {
  ReputationConfig bad;
  bad.flag_penalty = 0.0;
  EXPECT_THROW(ReputationBook{bad}, std::invalid_argument);
  bad = ReputationConfig{};
  bad.flag_penalty = 1.0;
  EXPECT_THROW(ReputationBook{bad}, std::invalid_argument);
  bad = ReputationConfig{};
  bad.clean_reward = 1.5;
  EXPECT_THROW(ReputationBook{bad}, std::invalid_argument);
  bad = ReputationConfig{};
  bad.floor = 0.0;
  EXPECT_THROW(ReputationBook{bad}, std::invalid_argument);
  ReputationConfig ok;
  ok.floor = 1.0;
  EXPECT_NO_THROW(ReputationBook{ok});
}

// --- ReputationWeighted sampling ------------------------------------

TEST(ReputationWeightedTest, DownsamplesFlaggedClients) {
  ReputationConfig config;
  config.flag_penalty = 0.02;  // one flag -> straight to the floor
  ReputationBook book(config);
  book.observe(0, true);

  ReputationWeighted policy(/*sample_size=*/3, &book);
  ParticipationContext ctx;
  ctx.num_clients = 6;
  int picked_flagged = 0, picked_honest = 0;
  for (int round = 0; round < 200; ++round) {
    ctx.round = round;
    const std::vector<std::size_t> cohort = policy.select(ctx);
    EXPECT_EQ(cohort.size(), 3u);
    for (std::size_t i = 1; i < cohort.size(); ++i) {
      EXPECT_LT(cohort[i - 1], cohort[i]);  // strictly ascending
    }
    for (std::size_t k : cohort) {
      if (k == 0) ++picked_flagged;
      if (k == 1) ++picked_honest;
    }
  }
  // Client 0 weighs 0.02 against five clients at 1.0: it should be
  // sampled far more rarely than any honest client (3 of 6 per round
  // would be ~100 appearances uniformly).
  EXPECT_GT(picked_honest, 80);
  EXPECT_LT(picked_flagged, picked_honest / 4);

  EXPECT_THROW(ReputationWeighted(0, &book), std::invalid_argument);
  EXPECT_THROW(ReputationWeighted(3, nullptr), std::invalid_argument);
}

// --- end-to-end defense wiring --------------------------------------

FLRunOptions tiny_options(int rounds) {
  FLRunOptions opts;
  opts.rounds = rounds;
  opts.client.steps = 4;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 5e-3;
  opts.client.mu = 0.0;
  opts.seed = 7;
  return opts;
}

SyntheticWorldOptions nine_clients() {
  SyntheticWorldOptions options;
  options.num_clients = 9;
  return options;
}

TEST(DefenseWiring, DetectorCatchesTheStockSignFlipRun) {
  AttackSpec attack;
  attack.kind = AttackKind::kSignFlip;
  attack.scale = 10.0;

  AnomalyConfig config;
  config.enabled = true;
  AnomalyDetector detector(config);
  TelemetrySink sink;

  SyntheticWorld w = make_synthetic_world(71, nine_clients());
  FLRunOptions opts = tiny_options(4);
  opts.sim = SimConfig::uniform(9);
  add_attackers(opts.sim, 3, attack);  // attackers at 0, 3, 6
  opts.anomaly = config;
  opts.detector = &detector;
  opts.telemetry = &sink;
  FedAvg algo;
  algo.run(w.clients, w.factory, opts);

  // Event-level precision/recall against the oracle attacker set: the
  // 10x sign-flip is caught by norm and direction alike, so the stock
  // scenario must clear the >= 0.8 / >= 0.8 bar with room.
  double tp = 0.0, fp = 0.0, fn = 0.0;
  for (std::size_t k = 0; k < 9; ++k) {
    const bool is_attacker = k % 3 == 0;
    const double flags = static_cast<double>(detector.flagged(k));
    const double scored = static_cast<double>(detector.scored(k));
    if (is_attacker) {
      tp += flags;
      fn += scored - flags;
    } else {
      fp += flags;
    }
  }
  EXPECT_GE(tp / std::max(tp + fp, 1.0), 0.8);
  EXPECT_GE(tp / std::max(tp + fn, 1.0), 0.8);

  // Telemetry keeps oracle truth and server inference side by side.
  ASSERT_EQ(sink.rounds().size(), 4u);
  for (const RoundTelemetry& r : sink.rounds()) {
    EXPECT_EQ(r.attackers_true, 3);
    EXPECT_EQ(r.attackers_detected, 3);
  }
}

TEST(DefenseWiring, ClusteredRoundsRecordCohortTelemetry) {
  // IFCA and AssignedClustering run the shared sync round body, so
  // every round records its cohort, the true attackers in it and one
  // staleness entry per update — fully and under sampling.
  AttackSpec attack;
  attack.kind = AttackKind::kSignFlip;
  SyntheticWorldOptions four;
  four.num_clients = 4;
  for (const int sample_size : {0, 3}) {
    for (const bool ifca : {true, false}) {
      SCOPED_TRACE(std::string(ifca ? "IFCA" : "AssignedClustering") +
                   " sample_size=" + std::to_string(sample_size));
      SyntheticWorld w = make_synthetic_world(73, four);
      FLRunOptions opts = tiny_options(3);
      opts.sim = SimConfig::uniform(4);
      add_attackers(opts.sim, 1, attack);
      if (sample_size > 0) {
        opts.participation.kind = ParticipationKind::kUniformSample;
        opts.participation.sample_size = sample_size;
      }
      TelemetrySink sink;
      opts.telemetry = &sink;
      if (ifca) {
        IFCA(2).run(w.clients, w.factory, opts);
      } else {
        AssignedClustering({0, 0, 1, 1}).run(w.clients, w.factory, opts);
      }

      // The cohorts the run drew, replayed from an identical policy.
      std::unique_ptr<ParticipationPolicy> policy =
          make_participation_policy(opts.participation);
      ASSERT_EQ(sink.rounds().size(), 3u);
      for (int r = 0; r < 3; ++r) {
        ParticipationContext ctx;
        ctx.round = r;
        ctx.num_clients = 4;
        ctx.sim = &opts.sim;
        const std::vector<std::size_t> cohort = policy->select(ctx);
        int attackers = 0;
        for (std::size_t k : cohort) {
          if (opts.sim.profile(k).attack.kind != AttackKind::kNone) {
            ++attackers;
          }
        }
        const RoundTelemetry& t = sink.rounds()[static_cast<std::size_t>(r)];
        EXPECT_EQ(t.cohort_size, static_cast<int>(cohort.size()))
            << "round " << r;
        EXPECT_EQ(t.attackers_true, attackers) << "round " << r;
        EXPECT_EQ(t.staleness.total(), cohort.size()) << "round " << r;
        EXPECT_EQ(t.staleness.counts[0], cohort.size()) << "round " << r;
      }
    }
  }
}

TEST(DefenseWiring, ReputationWeightedNeedsVerdictsToWeightBy) {
  SyntheticWorld w = make_synthetic_world(72, nine_clients());
  FLRunOptions opts = tiny_options(1);
  opts.participation.kind = ParticipationKind::kReputationWeighted;
  opts.participation.sample_size = 5;
  FedAvg algo;
  try {
    algo.run(w.clients, w.factory, opts);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("needs verdicts"),
              std::string::npos)
        << e.what();
  }
}

TEST(DefenseWiring, ReputationRunsAreDeterministicAcrossPools) {
  AttackSpec attack;
  attack.kind = AttackKind::kSignFlip;
  attack.scale = 10.0;
  auto run_rep = [&] {
    SyntheticWorld w = make_synthetic_world(73, nine_clients());
    FLRunOptions opts = tiny_options(4);
    opts.sim = SimConfig::uniform(9);
    add_attackers(opts.sim, 3, attack);
    opts.anomaly.enabled = true;
    opts.participation.kind = ParticipationKind::kReputationWeighted;
    opts.participation.sample_size = 5;
    opts.aggregation.rule = "trimmed_mean";
    opts.aggregation.trim_fraction = 0.34;
    FedAvg algo;
    return algo.run(w.clients, w.factory, opts).front();
  };
  std::vector<ModelParameters> finals;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool::reset_global(threads);
    finals.push_back(run_rep());
  }
  ThreadPool::reset_global(0);
  EXPECT_TRUE(bit_identical(finals[0], finals[1]));
  EXPECT_TRUE(bit_identical(finals[0], finals[2]));
}

// --- adaptive and colluding attackers -------------------------------

TEST(AdaptiveAttack, FallsBackToHonestNormThenTracksTheTrajectory) {
  AttackSpec spec;
  spec.kind = AttackKind::kAdaptiveScaled;
  spec.scale = 2.0;
  AttackState state;

  // First send: no trajectory yet — tolerance falls back to the honest
  // delta's own norm (1), so the reversed delta has norm 2.
  const ModelParameters ref0 = make_params({0.0f, 0.0f});
  const ModelParameters a0 = apply_attack(
      spec, make_params({1.0f, 0.0f}), ref0, /*client=*/0, /*nonce=*/0,
      &state);
  EXPECT_FLOAT_EQ(values_of(a0)[0], -2.0f);
  EXPECT_EQ(state.observations, 0u);

  // Second send: the reference moved by 0.5 — the EMA seeds at that
  // step, and the attack magnitude becomes scale * 0.5 = 1.
  const ModelParameters ref1 = make_params({0.5f, 0.0f});
  const ModelParameters a1 = apply_attack(
      spec, make_params({1.5f, 0.0f}), ref1, 0, 1, &state);
  EXPECT_EQ(state.observations, 1u);
  EXPECT_DOUBLE_EQ(state.step_norm_ema, 0.5);
  EXPECT_FLOAT_EQ(values_of(a1)[0], -0.5f);  // 0.5 - 1.0

  // Stateless application degrades to the honest-norm fallback.
  const ModelParameters stateless = apply_attack(
      spec, make_params({1.5f, 0.0f}), ref1, 0, 1, nullptr);
  EXPECT_FLOAT_EQ(values_of(stateless)[0], -1.5f);  // 0.5 - 2*1
}

TEST(AdaptiveAttack, EvadesTheNormClipThatStopsTheObliviousAttacker) {
  auto run_nine = [&](std::size_t attackers, const AttackSpec& attack) {
    SyntheticWorld w = make_synthetic_world(74, nine_clients());
    FLRunOptions opts = tiny_options(4);
    opts.aggregation.rule = "norm_clipped_mean";
    opts.aggregation.clip_norm = 0.05;
    opts.sim = SimConfig::uniform(9);
    if (attackers > 0) add_attackers(opts.sim, attackers, attack);
    FedAvg algo;
    return algo.run(w.clients, w.factory, opts).front();
  };
  const ModelParameters clean = run_nine(0, {});
  AttackSpec oblivious;
  oblivious.kind = AttackKind::kScaled;
  oblivious.scale = 50.0;
  AttackSpec adaptive;
  adaptive.kind = AttackKind::kAdaptiveScaled;
  adaptive.scale = 3.0;
  const double oblivious_dist =
      run_nine(3, oblivious).squared_distance(clean);
  const double adaptive_dist = run_nine(3, adaptive).squared_distance(clean);
  // The 50x oversized update is clipped back to an honest-sized step;
  // the tolerance-probing reversal stays inside the clip and drags the
  // model measurably further from the attack-free trajectory.
  EXPECT_GT(adaptive_dist, oblivious_dist);
}

TEST(CollusionAttack, SharesOneDirectionPerSeedAcrossClients) {
  AttackSpec spec;
  spec.kind = AttackKind::kCollusion;
  spec.scale = 2.0;
  const ModelParameters reference = make_params({0.0f, 0.0f, 0.0f});
  const ModelParameters update = make_params({1.0f, 0.0f, 0.0f});

  // Different clients, different nonces — the SAME poison, bit for bit
  // (the direction is drawn from the spec seed alone).
  const ModelParameters a = apply_attack(spec, update, reference, 1, 0);
  const ModelParameters b = apply_attack(spec, update, reference, 2, 5);
  EXPECT_TRUE(bit_identical(a, b));
  EXPECT_FALSE(bit_identical(a, update));

  // The magnitude scales with the honest delta norm along the same
  // direction: doubling the honest norm doubles the poison.
  const ModelParameters big = apply_attack(
      spec, make_params({2.0f, 0.0f, 0.0f}), reference, 3, 0);
  const double cos = a.dot(big) / std::sqrt(a.squared_l2_norm() *
                                            big.squared_l2_norm());
  EXPECT_NEAR(cos, 1.0, 1e-6);
  EXPECT_NEAR(std::sqrt(big.squared_l2_norm() / a.squared_l2_norm()), 2.0,
              1e-5);

  // A different seed is a different conspiracy.
  AttackSpec other = spec;
  other.seed = 1234;
  EXPECT_FALSE(
      bit_identical(apply_attack(other, update, reference, 1, 0), a));
}

// --- scenarios and validation ---------------------------------------

TEST(DiurnalScenario, PhasesNightWindowsAcrossZones) {
  // 6 clients over 3 zones, 100 s days, 25% night, 2 days: zone z goes
  // dark at z/3 of a day, so exactly one zone sleeps at any instant.
  const SimConfig config = SimConfig::diurnal(6, 100.0, 3, 0.25, 2);
  ASSERT_EQ(config.profiles.size(), 6u);
  // Zone 0 (clients 0 and 3): offline [0, 25) and [100, 125).
  EXPECT_FALSE(config.profile(0).is_online(10.0));
  EXPECT_FALSE(config.profile(3).is_online(10.0));
  EXPECT_TRUE(config.profile(0).is_online(30.0));
  EXPECT_FALSE(config.profile(0).is_online(110.0));
  EXPECT_TRUE(config.profile(0).is_online(130.0));  // only `days` repeats
  EXPECT_DOUBLE_EQ(config.profile(0).next_online(10.0), 25.0);
  // Zone 1 (client 1): phased a third of a day later.
  EXPECT_TRUE(config.profile(1).is_online(10.0));
  EXPECT_FALSE(config.profile(1).is_online(40.0));
  // At t = 10 only zone 0's two clients are dark — the availability
  // wave keeps ~night_fraction of the fleet offline, never everyone.
  int offline = 0;
  for (std::size_t k = 0; k < 6; ++k) {
    if (!config.profile(k).is_online(10.0)) ++offline;
  }
  EXPECT_EQ(offline, 2);
}

TEST(DiurnalScenario, ValidatesItsShape) {
  EXPECT_THROW(SimConfig::diurnal(6, 0.0, 3, 0.25, 2),
               std::invalid_argument);
  EXPECT_THROW(SimConfig::diurnal(
                   6, std::numeric_limits<double>::infinity(), 3, 0.25, 2),
               std::invalid_argument);
  EXPECT_THROW(SimConfig::diurnal(6, 100.0, 0, 0.25, 2),
               std::invalid_argument);
  EXPECT_THROW(SimConfig::diurnal(6, 100.0, 3, 1.0, 2),
               std::invalid_argument);
  EXPECT_THROW(SimConfig::diurnal(6, 100.0, 3, -0.1, 2),
               std::invalid_argument);
  EXPECT_THROW(SimConfig::diurnal(6, 100.0, 3, 0.25, -1),
               std::invalid_argument);
  // Zero night (or zero days) is a valid always-on fleet.
  const SimConfig always_on = SimConfig::diurnal(6, 100.0, 3, 0.0, 2);
  EXPECT_TRUE(always_on.profile(0).offline.empty());
}

TEST(PeriodicDropout, ValidatesInputs) {
  SimConfig config = SimConfig::uniform(3);
  EXPECT_THROW(add_periodic_dropout(config, 0, -1.0, 10.0, 1.0, 2),
               std::invalid_argument);
  EXPECT_THROW(add_periodic_dropout(config, 0, 0.0, 10.0, 0.0, 2),
               std::invalid_argument);
  EXPECT_THROW(add_periodic_dropout(config, 0, 0.0, 10.0, 11.0, 2),
               std::invalid_argument);
  EXPECT_THROW(add_periodic_dropout(config, 0, 0.0, 10.0, 1.0, -1),
               std::invalid_argument);
  EXPECT_THROW(add_periodic_dropout(
                   config, 0, std::numeric_limits<double>::quiet_NaN(), 10.0,
                   1.0, 2),
               std::invalid_argument);
  add_periodic_dropout(config, 1, 5.0, 10.0, 2.0, 2);
  ASSERT_EQ(config.profiles[1].offline.size(), 2u);
  EXPECT_DOUBLE_EQ(config.profiles[1].offline[1].begin, 15.0);
  EXPECT_DOUBLE_EQ(config.profiles[1].offline[1].end, 17.0);
}

TEST(AttackSpecValidation, NegativeScaleAndBadNoiseAreRejected) {
  const ModelParameters reference = make_params({0.0f});
  const ModelParameters update = make_params({1.0f});
  AttackSpec bad;
  bad.kind = AttackKind::kScaled;
  bad.scale = -1.0;  // a negative scale silently inverted the attack
  EXPECT_THROW(apply_attack(bad, update, reference, 0, 0),
               std::invalid_argument);
  bad.scale = 1.0;
  bad.noise_stddev = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(apply_attack(bad, update, reference, 0, 0),
               std::invalid_argument);
  // add_attackers validates the spec before touching any profile.
  SimConfig config = SimConfig::uniform(4);
  AttackSpec negative;
  negative.kind = AttackKind::kSignFlip;
  negative.scale = -2.0;
  EXPECT_THROW(add_attackers(config, 1, negative), std::invalid_argument);
  for (const ClientProfile& p : config.profiles) {
    EXPECT_EQ(p.attack.kind, AttackKind::kNone);
  }
}

// --- AsyncFedAvg staleness gate -------------------------------------

TEST(AsyncStalenessGate, NegativeAgeIsRejected) {
  AsyncConfig config;
  config.staleness_gate_age = -1;
  EXPECT_THROW(AsyncFedAvg{config}, std::invalid_argument);
}

TEST(AsyncStalenessGate, EngagesOnlyBehindAFiniteInFlightCap) {
  auto run_async = [&](int max_in_flight, int gate_age,
                       StalenessHistogram* staleness) {
    SyntheticWorld w = make_synthetic_world(75, nine_clients());
    // 40 aggregations with one 10x straggler: slow enough that its
    // uploads arrive many versions behind, fast enough that they keep
    // arriving (and being scored for staleness) throughout the run.
    FLRunOptions opts = tiny_options(40);
    opts.sim = SimConfig::with_straggler(9, 0, 10.0);
    TelemetrySink sink;
    opts.telemetry = &sink;
    AsyncConfig config;
    config.buffer_size = 4;
    config.max_in_flight = max_in_flight;
    config.staleness_gate_age = gate_age;
    AsyncFedAvg algo(config);
    const ModelParameters final =
        algo.run(w.clients, w.factory, opts).front();
    EXPECT_EQ(sink.rounds().size(), 40u);  // the gate never deadlocks
    if (staleness != nullptr) {
      for (const RoundTelemetry& r : sink.rounds()) {
        for (int b = 0; b < StalenessHistogram::kBuckets; ++b) {
          staleness->counts[static_cast<std::size_t>(b)] +=
              r.staleness.counts[static_cast<std::size_t>(b)];
        }
      }
    }
    return final;
  };

  // With an unlimited cap the gate has nothing to tighten: any
  // gate_age replays the uncapped run bit for bit.
  EXPECT_TRUE(bit_identical(run_async(0, 0, nullptr),
                            run_async(0, 5, nullptr)));

  // Behind a finite cap the gate engages: the scenario does produce
  // deeply stale buffered updates (buckets 3-4 / 5-8 / 9+), so a
  // gate_age of 1 throttles dispatch and changes the event schedule —
  // deterministically (a replay is bit-identical).
  StalenessHistogram ungated;
  const ModelParameters f_ungated = run_async(8, 0, &ungated);
  const ModelParameters f_gated = run_async(8, 1, nullptr);
  EXPECT_GT(ungated.counts[3] + ungated.counts[4] + ungated.counts[5], 0u);
  EXPECT_FALSE(bit_identical(f_ungated, f_gated));
  EXPECT_TRUE(bit_identical(f_gated, run_async(8, 1, nullptr)));
}

}  // namespace
}  // namespace fleda
