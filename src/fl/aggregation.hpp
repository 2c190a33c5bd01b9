// AggregationRule: the strategy that turns a cohort's updates into the
// next server-side model. The weighted-average math used to live in
// Server and the staleness-discount / server-mix math inside
// AsyncFedAvg's round loop; both are now pluggable rules, so a new
// aggregation scheme (median, trimmed mean, momentum server, ...)
// plugs into every algorithm instead of forking one.
//
// Two families ship:
//   Averaging rules (folds_into_current() == false) — combine the
//     cohort's snapshots; `current` is at most a reference point:
//       WeightedAverage   — W' = sum_k (n_k / n) w_k over the cohort
//                           (FedAvg/FedProx semantics; ignores
//                           `current` and staleness).
//       CoordinateMedian  — entrywise median of the cohort (rank-based,
//                           so sample counts are validated but do not
//                           weight the result). Robust to < 50%
//                           arbitrarily-corrupted clients.
//       TrimmedMean       — entrywise mean after dropping the
//                           floor(trim_fraction * n) largest and
//                           smallest values per coordinate.
//       NormClippedMean   — each update's delta against `current` is
//                           clipped to clip_norm in L2 before the
//                           weighted average; bounds any single
//                           client's pull on the global model.
//   Delta/mixing rules (folds_into_current() == true) — the cohort
//     entries are DELTAS and aggregate() returns `current` with them
//     folded in:
//       StalenessDiscountedMix — W' = W + eta * sum_i u_i d_i /
//                           sum_i u_i, u_i = n_i * s(tau_i)
//                           (AsyncFedAvg/FedBuff semantics).
//
// Every rule refuses an empty cohort, a zero total weight, or a
// non-finite update with a descriptive error — under partial
// participation an all-offline sampled cohort must fail loudly, and a
// single NaN/Inf client update must never reach the global model.
//
// Rules are constructible by name through AggregationRegistry (the
// aggregation-layer mirror of AlgorithmRegistry), parameterized by the
// declarative AggregationConfig that FLRunOptions/ExperimentConfig
// carry — so any algorithm swaps its rule without a code change.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fl/parameters.hpp"

namespace fleda {

// One client's contribution to an aggregation step.
struct AggregationInput {
  // Full parameters for averaging rules; a delta against the dispatched
  // model for mixing rules. Never null.
  const ModelParameters* params = nullptr;
  double weight = 0.0;  // n_k, the client's sample count
  int staleness = 0;    // model versions behind the server; sync: 0
  // Federation-level client index, used only to name the culprit in
  // validation errors (a poisoned update should point at its sender).
  // Negative = unknown; errors then name the cohort position.
  int client = -1;
};

// Fixed fold-lane count of the native streaming accumulators. Lanes —
// not thread-pool chunks — are the unit of parallel folding: the cohort
// is partitioned into kFoldLanes contiguous blocks, each lane folds its
// block serially in cohort order into its own accumulator, and the
// coordinator merges the lanes in lane order. Because the partition and
// both fold/merge orders are pure functions of the cohort (never of
// thread scheduling), streaming results are bit-identical across
// thread-pool sizes. Buffered rounds do not depend on the partition at
// all, so they may size their lanes from the pool instead.
inline constexpr std::size_t kFoldLanes = 8;

// How a streaming aggregation is laid out: how many folds to expect,
// how many parallel fold lanes feed partial accumulators, and how many
// parameter shards the (element-wise) merge/finish passes may split
// the model into. Shards only parallelize element-wise work, so the
// result is shard-count invariant by construction — FLEDA_AGG_SHARDS
// is a parallelism knob, not a semantics knob.
struct ShardLayout {
  std::size_t cohort_size = 0;    // expected folds; 0 = unknown
  std::size_t lanes = kFoldLanes; // partial accumulators folded in parallel
  std::size_t shards = 0;         // merge/finish parallelism; 0 = auto
};

// Half-open lane boundaries over [0, n): lanes + 1 offsets with lane l
// covering [offsets[l], offsets[l + 1]). Pure function of (n, lanes) —
// the streaming path's determinism rests on these bounds never
// depending on the thread pool.
std::vector<std::size_t> fold_lane_offsets(std::size_t n, std::size_t lanes);

// One partial accumulator of a streaming aggregation: updates are
// folded in one at a time (and can be freed by the caller immediately
// after), sibling lanes are merged in lane order, and finish() emits
// the aggregated model. Obtained from AggregationRule::accumulator();
// not thread-safe — each lane owns one, and merge()/finish() run on
// the coordinator after all folds complete. With a native accumulator
// server memory for a round is O(lanes x model) (plus O(shards x
// threads) transient scratch in finish), independent of cohort size;
// the buffered one holds the cohort, like a dense aggregate() call.
class StreamingAccumulator {
 public:
  virtual ~StreamingAccumulator() = default;

  // Folds one client's contribution; callers move the update in.
  // Native accumulators mirror the dense rules' guards here: they throw
  // std::invalid_argument on a null-structure/NaN/Inf update, a
  // negative or non-finite weight, or a structure mismatch, naming
  // `client` (negative = unknown). The buffered accumulator keeps the
  // update and leaves every guard to aggregate() in finish().
  // `staleness` feeds mixing rules' discount; synchronous callers pass 0.
  virtual void fold(ModelParameters update, double weight, int staleness,
                    int client) = 0;

  // Absorbs a sibling lane's partials (same rule, same layout). The
  // caller merges lanes in ascending lane order; `other` is left empty.
  virtual void merge(StreamingAccumulator& other) = 0;

  // Folds absorbed so far (own + merged) — lets callers skip finish()
  // for an empty group (e.g. a dead IFCA cluster) instead of tripping
  // the empty-cohort error.
  virtual std::size_t folds() const = 0;

  // The aggregated model. Throws like the dense rules on zero folds or
  // a zero/non-finite total weight. Call once, after all merges.
  virtual ModelParameters finish() = 0;
};

class AggregationRule {
 public:
  virtual ~AggregationRule() = default;

  virtual std::string name() const = 0;

  // Whether aggregate() folds the cohort (as deltas) into `current`
  // (mixing rules) rather than combining the cohort's snapshots alone
  // (averaging rules). Event-driven servers use this to decide how to
  // apply a rule to their buffered deltas.
  virtual bool folds_into_current() const { return false; }

  // A fresh partial accumulator for one fold lane. `current` is the
  // model being replaced (the delta/clipping reference; it must
  // outlive the accumulator — round loops keep the global model alive
  // across the round). Rules with a native streaming form override
  // this (weighted_average, norm_clipped_mean, staleness_mix exactly
  // up to summation order; coordinate_median / trimmed_mean via a
  // histogram sketch). The default is buffered_accumulator(), so every
  // rule — Krum included — aggregates through the same fold/merge/
  // finish protocol.
  virtual std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current, const ShardLayout& layout) const;

  // The buffered accumulator: fold keeps each update with its weight,
  // staleness and client; merge appends the peer lane's entries, so
  // lanes merged in lane order hold the cohort in cohort order; finish()
  // returns aggregate(current, entries). Results, guards and error
  // messages are therefore exactly the dense rule's, for any lane
  // split. Holds the server's cohort in memory (O(cohort x model)).
  // This rule and `current` must outlive the accumulator.
  std::unique_ptr<StreamingAccumulator> buffered_accumulator(
      const ModelParameters& current) const;

  // Combines the cohort into the next model. `current` is the model
  // being replaced; plain averaging rules ignore it, clipping rules use
  // it as the delta reference, mixing rules fold into it. Throws
  // std::invalid_argument on an empty cohort, zero/non-finite total
  // weight, a non-finite update, or structure mismatch.
  virtual ModelParameters aggregate(
      const ModelParameters& current,
      const std::vector<AggregationInput>& cohort) const = 0;
};

// Sample-count weighted FedAvg average (paper Eq. W^{r+1}).
class WeightedAverage : public AggregationRule {
 public:
  std::string name() const override { return "weighted_average"; }
  // Streaming form: per-coordinate double running sums of w_k * w^k
  // plus a scalar total weight; finish() scales by 1 / total. Exact up
  // to summation order (doubles absorb the reassociation), so it
  // matches the dense rule to float rounding, not bit-for-bit — which
  // is why streaming is opt-in.
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current, const ShardLayout& layout) const override;
  ModelParameters aggregate(
      const ModelParameters& current,
      const std::vector<AggregationInput>& cohort) const override;
};

// Entrywise (coordinate-wise) median over the cohort. Rank-based:
// sample-count weights are validated but do not influence the result,
// which is what makes a < 50% fraction of arbitrarily-corrupted
// clients unable to move any coordinate outside the honest range.
class CoordinateMedian : public AggregationRule {
 public:
  // sketch_bins / sketch_span parameterize ONLY the streaming sketch
  // (see accumulator()); the dense aggregate() stays exact.
  explicit CoordinateMedian(int sketch_bins = 32, double sketch_span = 0.25);

  std::string name() const override { return "coordinate_median"; }
  // Streaming form: a per-coordinate fixed-bin histogram sketch over
  // [current[c] - span, current[c] + span] (values outside clamp to the
  // edge bins); finish() reads the median off the bin ranks, answering
  // with the bucket midpoint. Bounded error: within the span the
  // median is off by at most one bin width (2 * span / bins); integer
  // bin counts merge exactly, so the sketch stays deterministic across
  // lane/shard layouts.
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current, const ShardLayout& layout) const override;
  ModelParameters aggregate(
      const ModelParameters& current,
      const std::vector<AggregationInput>& cohort) const override;

 private:
  int sketch_bins_;
  double sketch_span_;
};

// Entrywise trimmed mean: per coordinate, the g = floor(trim_fraction
// * n) smallest and largest values are dropped and the surviving
// n - 2g values averaged (unweighted, like the median — robustness
// comes from the rank filter, not the sample counts). Tolerates up to
// g corrupted clients per coordinate.
class TrimmedMean : public AggregationRule {
 public:
  // trim_fraction in [0, 0.5); 0 recovers the unweighted mean.
  // sketch_bins / sketch_span parameterize only the streaming sketch.
  explicit TrimmedMean(double trim_fraction, int sketch_bins = 32,
                       double sketch_span = 0.25);

  std::string name() const override { return "trimmed_mean"; }
  double trim_fraction() const { return trim_fraction_; }
  // Streaming form: the same histogram sketch as CoordinateMedian;
  // finish() averages the mass of ranks [g, n - g) per coordinate by
  // walking the bins' cumulative counts (bucket midpoints as values).
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current, const ShardLayout& layout) const override;
  ModelParameters aggregate(
      const ModelParameters& current,
      const std::vector<AggregationInput>& cohort) const override;

 private:
  double trim_fraction_;
  int sketch_bins_;
  double sketch_span_;
};

// Weighted average of delta-clipped updates: each cohort member's
// delta against `current` is scaled down to at most clip_norm in L2
// before the sample-count weighted average, so no single client —
// however scaled its update — can pull the global model further than
// clip_norm in one round. Requires a non-empty `current` (the server's
// model) as the clipping reference.
class NormClippedMean : public AggregationRule {
 public:
  explicit NormClippedMean(double clip_norm);  // must be finite and > 0

  std::string name() const override { return "norm_clipped_mean"; }
  double clip_norm() const { return clip_norm_; }
  // Streaming form: fold computes the clipped delta against `current`
  // immediately (clip factor needs only the one update) and running-sums
  // w_k * clip_k * delta_k in doubles; finish() adds the scaled sum back
  // onto `current`. `current` must outlive the accumulator.
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current, const ShardLayout& layout) const override;
  ModelParameters aggregate(
      const ModelParameters& current,
      const std::vector<AggregationInput>& cohort) const override;

 private:
  double clip_norm_;
};

// Krum (Blanchard et al. 2017): distance-based selection. Each cohort
// member i is scored by the sum of its squared L2 distances to its
// n - f - 2 nearest neighbors; the member with the lowest score — the
// update sitting deepest inside the honest cluster — becomes the next
// model verbatim. Tolerates f Byzantine members but requires
// n >= 2f + 3 (enforced per aggregate() call with a descriptive
// error): with fewer honest neighbors the score is no longer
// Byzantine-resilient. Rank-based like the median: sample-count
// weights are validated but do not influence selection.
class Krum : public AggregationRule {
 public:
  explicit Krum(int f);  // assumed Byzantine count, must be >= 0

  std::string name() const override { return "krum"; }
  int f() const { return f_; }
  ModelParameters aggregate(
      const ModelParameters& current,
      const std::vector<AggregationInput>& cohort) const override;

 protected:
  // Cohort indices ordered ascending by (Krum score, index); callers
  // take the first m. Validates the cohort (shared guards + the
  // n >= 2f + 3 requirement). `rule` labels the thrown errors.
  std::vector<std::size_t> krum_order(
      const std::vector<AggregationInput>& cohort, const char* rule) const;

 private:
  int f_;
};

// MultiKrum{f, m}: the unweighted average of the m lowest-Krum-score
// updates — smoother than single Krum (m honest votes instead of one)
// while still discarding the far-out m..n tail. m must satisfy
// 1 <= m <= n - f - 2; m == 0 selects that maximum automatically per
// cohort (keep everything Krum considers scoreable).
class MultiKrum : public Krum {
 public:
  MultiKrum(int f, int m);  // m >= 0; 0 = auto (n - f - 2 at aggregate)

  std::string name() const override { return "multi_krum"; }
  int m() const { return m_; }
  ModelParameters aggregate(
      const ModelParameters& current,
      const std::vector<AggregationInput>& cohort) const override;

 private:
  int m_;
};

// Staleness discount s(tau) applied to buffered async updates.
enum class StalenessDiscount : std::uint8_t {
  // s(tau) = (1 + tau)^-exponent — FedBuff's polynomial discount.
  kPolynomial = 0,
  // s(0) = 1, s(tau >= 1) = constant_factor.
  kConstant = 1,
};

struct StalenessPolicy {
  StalenessDiscount discount = StalenessDiscount::kPolynomial;
  double poly_exponent = 1.0;    // kPolynomial
  double constant_factor = 0.3;  // kConstant

  // Discount weight for an update trained on a model `staleness`
  // versions behind the current one.
  double weight(int staleness) const;
};

// current + server_mix * (discounted weighted average of deltas).
class StalenessDiscountedMix : public AggregationRule {
 public:
  StalenessDiscountedMix(StalenessPolicy staleness, double server_mix);

  std::string name() const override { return "staleness_mix"; }
  bool folds_into_current() const override { return true; }
  // Streaming form: folds are DELTAS (like aggregate()'s cohort);
  // running sum of u_i * d_i with u_i = weight * s(staleness); finish()
  // returns current + server_mix * sum / total_u.
  std::unique_ptr<StreamingAccumulator> accumulator(
      const ModelParameters& current, const ShardLayout& layout) const override;
  ModelParameters aggregate(
      const ModelParameters& current,
      const std::vector<AggregationInput>& cohort) const override;

 private:
  StalenessPolicy staleness_;
  double server_mix_;
};

// Declarative rule selection carried by FLRunOptions /
// ExperimentConfig: a registry key plus the knobs the built-in
// factories consult (bundled so registering a new rule never changes
// the factory signature).
struct AggregationConfig {
  // AggregationRegistry key. Empty = the algorithm's historical
  // default: WeightedAverage for the synchronous round loops,
  // StalenessDiscountedMix (from AsyncConfig's knobs) for AsyncFedAvg.
  // Synchronous loops reject delta-mixing rules ("staleness_mix") —
  // their cohorts are full parameters, not deltas.
  std::string rule;
  double trim_fraction = 0.1;  // "trimmed_mean"
  double clip_norm = 10.0;     // "norm_clipped_mean"
  int krum_f = 1;              // "krum" / "multi_krum": Byzantine budget
  int krum_m = 0;              // "multi_krum": selected count; 0 = n-f-2
  // Knobs for an EXPLICIT rule = "staleness_mix". They intentionally
  // take precedence over AsyncConfig's staleness/server_mix fields,
  // which apply only to the empty-rule default — naming the rule here
  // means configuring it here.
  StalenessPolicy staleness;
  double server_mix = 0.5;
  // Every round loop folds its cohort through a StreamingAccumulator;
  // this chooses which one. On: the rule's native accumulator (O(lanes
  // x model) server memory). Off, or with an anomaly detector attached
  // (it scores the whole cohort): the buffered accumulator, whose
  // finish() is the dense aggregate(). Rules without a native form
  // (Krum family) are buffered either way. Off by default: native
  // accumulators reassociate sums (double partials), so results match
  // dense to float rounding but not bit-for-bit, and the dense K = 1000
  // reference fingerprint must not move.
  bool streaming = false;
  // Merge/finish element-wise parallelism for the streaming path
  // (FLEDA_AGG_SHARDS). 0 = auto. Never changes results.
  std::size_t shards = 0;
  // Histogram-sketch resolution for streaming coordinate_median /
  // trimmed_mean: bins per coordinate and the half-width of the sketch
  // window around the current model. Worst-case in-span quantile error
  // is one bin width = 2 * sketch_span / sketch_bins.
  int sketch_bins = 32;
  double sketch_span = 0.25;
};

// String-keyed factory map over aggregation rules, mirroring
// AlgorithmRegistry: downstream code registers robust-aggregation
// variants without touching src/, and configs select them by name.
class AggregationRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<AggregationRule>(const AggregationConfig&)>;

  // The process-wide registry, with the built-in rules
  // ("weighted_average", "coordinate_median", "trimmed_mean",
  // "norm_clipped_mean", "krum", "multi_krum", "staleness_mix")
  // registered on first use.
  static AggregationRegistry& global();

  // Registers `factory` under `name`. Throws std::invalid_argument on
  // an empty name or a duplicate registration.
  void add(std::string name, Factory factory);

  bool contains(std::string_view name) const;
  // All registered names, sorted.
  std::vector<std::string> names() const;

  // Instantiates the rule registered under `name`. Throws
  // std::invalid_argument on an unknown name, listing what is
  // registered.
  std::unique_ptr<AggregationRule> create(
      std::string_view name, const AggregationConfig& config = {}) const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

// The rule `config` names, from the global registry. Throws on an
// empty name — "use the algorithm default" is the caller's decision,
// not the registry's.
std::unique_ptr<AggregationRule> make_aggregation_rule(
    const AggregationConfig& config);

}  // namespace fleda
