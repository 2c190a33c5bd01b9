#include "fl/aggregation.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// "client 7" when the caller labeled the input, "cohort update #3"
// otherwise — validation errors must point at the sender of a poisoned
// update, not just say "something was NaN".
std::string who(const AggregationInput& in, std::size_t position) {
  if (in.client >= 0) return "client " + std::to_string(in.client);
  return "cohort update #" + std::to_string(position);
}

// Shared cohort validation: every rule divides by the total weight and
// folds the parameter values in, so both failure families are caught
// once — bad *weights* (the participation layer's usual bug) and
// non-finite *values* (a poisoned or diverged client update, which
// used to pass silently and corrupt every downstream round).
double checked_total_weight(const char* rule,
                            const std::vector<AggregationInput>& cohort,
                            bool apply_staleness,
                            const StalenessPolicy* staleness) {
  if (cohort.empty()) {
    throw std::invalid_argument(
        std::string(rule) +
        ": empty cohort — no client contributed this round (did the "
        "participation policy sample only offline clients?)");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    const AggregationInput& in = cohort[i];
    if (in.params == nullptr) {
      throw std::invalid_argument(std::string(rule) + ": null update from " +
                                  who(in, i));
    }
    if (!(in.weight >= 0.0)) {  // negatives and NaNs both fail this
      throw std::invalid_argument(
          std::string(rule) + ": weight " + std::to_string(in.weight) +
          " from " + who(in, i) + " is negative or non-finite");
    }
    // One cheap norm accumulation per entry catches NaN and Inf alike
    // (either poisons the sum). Guards every rule, including plain
    // WeightedAverage — the historical hole this check closes.
    if (!std::isfinite(in.params->squared_l2_norm())) {
      static Counter& trips = MetricsRegistry::global().counter(
          "fleda.agg.nonfinite_guard_trips");
      trips.add(1);
      throw std::invalid_argument(
          std::string(rule) + ": " + who(in, i) +
          " sent a non-finite update (NaN/Inf parameter values) — "
          "refusing to aggregate it into the global model");
    }
    total += apply_staleness ? in.weight * staleness->weight(in.staleness)
                             : in.weight;
  }
  if (!(total > 0.0) || !std::isfinite(total)) {
    throw std::invalid_argument(
        std::string(rule) + ": total weight " + std::to_string(total) +
        " over " + std::to_string(cohort.size()) +
        " clients — refusing to divide (would emit NaN parameters)");
  }
  return total;
}

void check_structure(const char* rule, const ModelParameters& reference,
                     const AggregationInput& in, std::size_t position) {
  if (!reference.structurally_equal(*in.params)) {
    throw std::invalid_argument(std::string(rule) + ": structure mismatch at " +
                                who(in, position));
  }
}

}  // namespace

ModelParameters WeightedAverage::aggregate(
    const ModelParameters& /*current*/,
    const std::vector<AggregationInput>& cohort) const {
  ProfileScope prof(phase::kAggregate);
  const double total =
      checked_total_weight("WeightedAverage", cohort, false, nullptr);
  ModelParameters result = *cohort[0].params;
  result.scale(cohort[0].weight / total);
  for (std::size_t i = 1; i < cohort.size(); ++i) {
    check_structure("WeightedAverage", *cohort[0].params, cohort[i], i);
    result.add_scaled(*cohort[i].params, cohort[i].weight / total);
  }
  return result;
}

CoordinateMedian::CoordinateMedian(int sketch_bins, double sketch_span)
    : sketch_bins_(sketch_bins), sketch_span_(sketch_span) {
  if (sketch_bins < 2) {
    throw std::invalid_argument("CoordinateMedian: sketch_bins " +
                                std::to_string(sketch_bins) +
                                " must be >= 2");
  }
  if (!std::isfinite(sketch_span) || sketch_span <= 0.0) {
    throw std::invalid_argument("CoordinateMedian: sketch_span " +
                                std::to_string(sketch_span) +
                                " must be finite and > 0");
  }
}

ModelParameters CoordinateMedian::aggregate(
    const ModelParameters& /*current*/,
    const std::vector<AggregationInput>& cohort) const {
  ProfileScope prof(phase::kAggregate);
  checked_total_weight("CoordinateMedian", cohort, false, nullptr);
  for (std::size_t i = 1; i < cohort.size(); ++i) {
    check_structure("CoordinateMedian", *cohort[0].params, cohort[i], i);
  }
  const std::size_t n = cohort.size();
  ModelParameters result = *cohort[0].params;
  std::vector<float> column(n);
  std::vector<const float*> sources(n);
  for (std::size_t e = 0; e < result.entries().size(); ++e) {
    Tensor& out = result.mutable_entries()[e].value;
    float* out_data = out.data();
    const std::int64_t numel = out.numel();
    for (std::size_t c = 0; c < n; ++c) {
      sources[c] = cohort[c].params->entries()[e].value.data();
    }
    for (std::int64_t i = 0; i < numel; ++i) {
      for (std::size_t c = 0; c < n; ++c) column[c] = sources[c][i];
      // The k-th order statistic is a value of the multiset, so the
      // result does not depend on the cohort's order — determinism
      // across participation shuffles comes for free.
      const std::size_t mid = n / 2;
      std::nth_element(column.begin(), column.begin() + mid, column.end());
      if (n % 2 == 1) {
        out_data[i] = column[mid];
      } else {
        const float hi = column[mid];
        const float lo =
            *std::max_element(column.begin(), column.begin() + mid);
        out_data[i] =
            static_cast<float>((static_cast<double>(lo) + hi) / 2.0);
      }
    }
  }
  return result;
}

TrimmedMean::TrimmedMean(double trim_fraction, int sketch_bins,
                         double sketch_span)
    : trim_fraction_(trim_fraction),
      sketch_bins_(sketch_bins),
      sketch_span_(sketch_span) {
  if (!(trim_fraction >= 0.0) || trim_fraction >= 0.5) {
    throw std::invalid_argument(
        "TrimmedMean: trim_fraction " + std::to_string(trim_fraction) +
        " outside [0, 0.5) — trimming half or more from each end leaves "
        "nothing to average");
  }
  if (sketch_bins < 2) {
    throw std::invalid_argument("TrimmedMean: sketch_bins " +
                                std::to_string(sketch_bins) +
                                " must be >= 2");
  }
  if (!std::isfinite(sketch_span) || sketch_span <= 0.0) {
    throw std::invalid_argument("TrimmedMean: sketch_span " +
                                std::to_string(sketch_span) +
                                " must be finite and > 0");
  }
}

ModelParameters TrimmedMean::aggregate(
    const ModelParameters& /*current*/,
    const std::vector<AggregationInput>& cohort) const {
  ProfileScope prof(phase::kAggregate);
  checked_total_weight("TrimmedMean", cohort, false, nullptr);
  for (std::size_t i = 1; i < cohort.size(); ++i) {
    check_structure("TrimmedMean", *cohort[0].params, cohort[i], i);
  }
  const std::size_t n = cohort.size();
  // trim_fraction < 0.5 guarantees n - 2g >= 1 survivors.
  const std::size_t g =
      static_cast<std::size_t>(trim_fraction_ * static_cast<double>(n));
  ModelParameters result = *cohort[0].params;
  std::vector<float> column(n);
  std::vector<const float*> sources(n);
  for (std::size_t e = 0; e < result.entries().size(); ++e) {
    Tensor& out = result.mutable_entries()[e].value;
    float* out_data = out.data();
    const std::int64_t numel = out.numel();
    for (std::size_t c = 0; c < n; ++c) {
      sources[c] = cohort[c].params->entries()[e].value.data();
    }
    for (std::int64_t i = 0; i < numel; ++i) {
      for (std::size_t c = 0; c < n; ++c) column[c] = sources[c][i];
      std::sort(column.begin(), column.end());
      double acc = 0.0;
      for (std::size_t c = g; c < n - g; ++c) acc += column[c];
      out_data[i] = static_cast<float>(acc / static_cast<double>(n - 2 * g));
    }
  }
  return result;
}

NormClippedMean::NormClippedMean(double clip_norm) : clip_norm_(clip_norm) {
  if (!std::isfinite(clip_norm) || clip_norm <= 0.0) {
    throw std::invalid_argument("NormClippedMean: clip_norm " +
                                std::to_string(clip_norm) +
                                " must be finite and > 0");
  }
}

ModelParameters NormClippedMean::aggregate(
    const ModelParameters& current,
    const std::vector<AggregationInput>& cohort) const {
  ProfileScope prof(phase::kAggregate);
  const double total =
      checked_total_weight("NormClippedMean", cohort, false, nullptr);
  if (current.empty()) {
    throw std::invalid_argument(
        "NormClippedMean: empty `current` — the rule clips each update's "
        "delta against the server's model, so the caller must pass it "
        "(not an empty snapshot)");
  }
  ModelParameters result = current;
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    check_structure("NormClippedMean", current, cohort[i], i);
    ModelParameters delta = *cohort[i].params;
    delta.add_scaled(current, -1.0);
    const double norm = std::sqrt(delta.squared_l2_norm());
    const double clip = norm > clip_norm_ ? clip_norm_ / norm : 1.0;
    result.add_scaled(delta, clip * cohort[i].weight / total);
  }
  return result;
}

Krum::Krum(int f) : f_(f) {
  if (f < 0) {
    throw std::invalid_argument("Krum: f " + std::to_string(f) +
                                " must be >= 0");
  }
}

std::vector<std::size_t> Krum::krum_order(
    const std::vector<AggregationInput>& cohort, const char* rule) const {
  checked_total_weight(rule, cohort, false, nullptr);
  const std::size_t n = cohort.size();
  for (std::size_t i = 1; i < n; ++i) {
    check_structure(rule, *cohort[0].params, cohort[i], i);
  }
  const std::size_t needed = 2 * static_cast<std::size_t>(f_) + 3;
  if (n < needed) {
    throw std::invalid_argument(
        std::string(rule) + ": cohort of " + std::to_string(n) +
        " cannot tolerate f=" + std::to_string(f_) +
        " Byzantine members — Krum scoring needs n >= 2f + 3 = " +
        std::to_string(needed) +
        " (sample a larger cohort or lower krum_f)");
  }
  // Pairwise squared distances, each pair computed once: the O(n^2)
  // pass over full snapshots that dominates the rule. The kernel runs
  // register-blocked tiles on the global pool, and every cell is
  // bit-for-bit squared_l2_distance, so the scores, the order and the
  // selected updates do not depend on the pool size.
  std::vector<const ModelParameters*> snapshots(n);
  for (std::size_t i = 0; i < n; ++i) snapshots[i] = cohort[i].params;
  const std::vector<double> dist =
      ModelParameters::pairwise_squared_l2_distances(snapshots);
  // score_i = sum of the n - f - 2 smallest distances to OTHERS.
  const std::size_t neighbors = n - static_cast<std::size_t>(f_) - 2;
  std::vector<double> score(n, 0.0);
  std::vector<double> row(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) row[m++] = dist[i * n + j];
    }
    std::nth_element(row.begin(),
                     row.begin() + static_cast<std::ptrdiff_t>(neighbors - 1),
                     row.end());
    double acc = 0.0;
    for (std::size_t c = 0; c < neighbors; ++c) acc += row[c];
    score[i] = acc;
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  // Ties break on the lower cohort index — selection is a pure
  // function of the multiset of updates plus their order, never of
  // thread scheduling.
  std::sort(order.begin(), order.end(),
            [&score](std::size_t a, std::size_t b) {
              if (score[a] != score[b]) return score[a] < score[b];
              return a < b;
            });
  return order;
}

ModelParameters Krum::aggregate(
    const ModelParameters& /*current*/,
    const std::vector<AggregationInput>& cohort) const {
  ProfileScope prof(phase::kAggregate);
  const std::vector<std::size_t> order = krum_order(cohort, "Krum");
  return *cohort[order.front()].params;
}

MultiKrum::MultiKrum(int f, int m) : Krum(f), m_(m) {
  if (m < 0) {
    throw std::invalid_argument("MultiKrum: m " + std::to_string(m) +
                                " must be >= 0 (0 = auto n - f - 2)");
  }
}

ModelParameters MultiKrum::aggregate(
    const ModelParameters& /*current*/,
    const std::vector<AggregationInput>& cohort) const {
  ProfileScope prof(phase::kAggregate);
  const std::vector<std::size_t> order = krum_order(cohort, "MultiKrum");
  const std::size_t n = cohort.size();
  const std::size_t max_m = n - static_cast<std::size_t>(f()) - 2;
  const std::size_t m = m_ == 0 ? max_m : static_cast<std::size_t>(m_);
  if (m > max_m) {
    throw std::invalid_argument(
        "MultiKrum: m=" + std::to_string(m) + " exceeds n - f - 2 = " +
        std::to_string(max_m) + " for a cohort of " + std::to_string(n) +
        " — the tail beyond that has no Byzantine-resilient score");
  }
  // Unweighted average of the m best-scored updates (rank-based family:
  // robustness comes from the selection, not the sample counts).
  ModelParameters result = *cohort[order[0]].params;
  result.scale(1.0 / static_cast<double>(m));
  for (std::size_t c = 1; c < m; ++c) {
    result.add_scaled(*cohort[order[c]].params, 1.0 / static_cast<double>(m));
  }
  return result;
}

double StalenessPolicy::weight(int staleness) const {
  if (staleness <= 0) return 1.0;
  switch (discount) {
    case StalenessDiscount::kPolynomial:
      return std::pow(1.0 + static_cast<double>(staleness), -poly_exponent);
    case StalenessDiscount::kConstant:
      return constant_factor;
  }
  return 1.0;
}

StalenessDiscountedMix::StalenessDiscountedMix(StalenessPolicy staleness,
                                               double server_mix)
    : staleness_(staleness), server_mix_(server_mix) {
  if (server_mix_ <= 0.0) {
    throw std::invalid_argument("StalenessDiscountedMix: server_mix <= 0");
  }
  if (staleness_.poly_exponent < 0.0 || staleness_.constant_factor <= 0.0) {
    throw std::invalid_argument(
        "StalenessDiscountedMix: discount must be positive");
  }
}

ModelParameters StalenessDiscountedMix::aggregate(
    const ModelParameters& current,
    const std::vector<AggregationInput>& cohort) const {
  ProfileScope prof(phase::kAggregate);
  const double total = checked_total_weight("StalenessDiscountedMix", cohort,
                                            true, &staleness_);
  // acc = sum_i n_i s(tau_i) delta_i
  ModelParameters acc;
  for (const AggregationInput& in : cohort) {
    const double u = in.weight * staleness_.weight(in.staleness);
    if (acc.empty()) {
      acc = *in.params;
      acc.scale(u);
    } else {
      acc.add_scaled(*in.params, u);
    }
  }
  acc.scale(server_mix_ / total);
  ModelParameters next = current;
  next.add_scaled(acc, 1.0);
  return next;
}

// ---------------------------------------------------------------------------
// Streaming accumulators
// ---------------------------------------------------------------------------

std::vector<std::size_t> fold_lane_offsets(std::size_t n, std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  std::vector<std::size_t> offsets(lanes + 1);
  for (std::size_t l = 0; l <= lanes; ++l) offsets[l] = n * l / lanes;
  return offsets;
}

namespace {

// Keeps every fold; finish() is the rule's own aggregate() over them.
class BufferedAccumulator final : public StreamingAccumulator {
 public:
  BufferedAccumulator(const AggregationRule& rule,
                      const ModelParameters& current)
      : rule_(&rule), current_(&current) {}

  void fold(ModelParameters update, double weight, int staleness,
            int client) override {
    entries_.push_back({std::move(update), weight, staleness, client});
  }

  void merge(StreamingAccumulator& other) override {
    auto* peer = dynamic_cast<BufferedAccumulator*>(&other);
    if (peer == nullptr || peer->rule_ != rule_) {
      throw std::invalid_argument(
          rule_->name() + ": merge with a different rule's accumulator");
    }
    for (Entry& e : peer->entries_) entries_.push_back(std::move(e));
    peer->entries_.clear();
  }

  std::size_t folds() const override { return entries_.size(); }

  ModelParameters finish() override {
    std::vector<AggregationInput> cohort;
    cohort.reserve(entries_.size());
    for (const Entry& e : entries_) {
      cohort.push_back({&e.params, e.weight, e.staleness, e.client});
    }
    return rule_->aggregate(*current_, cohort);
  }

 private:
  struct Entry {
    ModelParameters params;
    double weight;
    int staleness;
    int client;
  };
  const AggregationRule* rule_;
  const ModelParameters* current_;
  std::vector<Entry> entries_;
};

}  // namespace

std::unique_ptr<StreamingAccumulator> AggregationRule::accumulator(
    const ModelParameters& current, const ShardLayout& /*layout*/) const {
  return buffered_accumulator(current);
}

std::unique_ptr<StreamingAccumulator> AggregationRule::buffered_accumulator(
    const ModelParameters& current) const {
  return std::make_unique<BufferedAccumulator>(*this, current);
}

namespace {

// Per-fold mirror of checked_total_weight's guards: same failure
// families, same counter, caught before the value ever touches a
// partial sum.
void check_fold(const char* rule, const ModelParameters& update, double weight,
                int client) {
  const std::string sender = client >= 0
                                 ? "client " + std::to_string(client)
                                 : std::string("a cohort update");
  if (update.empty()) {
    throw std::invalid_argument(std::string(rule) + ": empty update from " +
                                sender);
  }
  if (!(weight >= 0.0)) {  // negatives and NaNs both fail this
    throw std::invalid_argument(
        std::string(rule) + ": weight " + std::to_string(weight) + " from " +
        sender + " is negative or non-finite");
  }
  if (!std::isfinite(update.squared_l2_norm())) {
    static Counter& trips = MetricsRegistry::global().counter(
        "fleda.agg.nonfinite_guard_trips");
    trips.add(1);
    throw std::invalid_argument(
        std::string(rule) + ": " + sender +
        " sent a non-finite update (NaN/Inf parameter values) — "
        "refusing to fold it into the global model");
  }
}

void check_fold_structure(const char* rule, const ModelParameters& reference,
                          const ModelParameters& update, int client) {
  if (!reference.structurally_equal(update)) {
    const std::string sender = client >= 0
                                   ? "client " + std::to_string(client)
                                   : std::string("a cohort update");
    throw std::invalid_argument(std::string(rule) +
                                ": structure mismatch at " + sender);
  }
}

void check_finish_total(const char* rule, std::size_t folds, double total) {
  if (folds == 0) {
    throw std::invalid_argument(
        std::string(rule) +
        ": empty cohort — no client contributed this round (did the "
        "participation policy sample only offline clients?)");
  }
  if (!(total > 0.0) || !std::isfinite(total)) {
    throw std::invalid_argument(
        std::string(rule) + ": total weight " + std::to_string(total) +
        " over " + std::to_string(folds) +
        " clients — refusing to divide (would emit NaN parameters)");
  }
}

// Runs fn(begin, end) over `shards` contiguous slices of [0, total).
// Slices are a pure function of (total, shards) and every write inside
// fn targets its own slice, so the split parallelizes element-wise
// merge/finish work without affecting results. shards == 0 picks the
// pool size; nested use (inside an outer parallel_for) degrades to the
// serial path via the pool's non-reentrancy.
void for_each_shard(std::size_t total, std::size_t shards,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (shards == 0) shards = ThreadPool::global().size();
  if (shards <= 1 || total < 4096) {
    fn(0, total);
    return;
  }
  parallel_for(shards, [&](std::size_t s_begin, std::size_t s_end) {
    for (std::size_t s = s_begin; s < s_end; ++s) {
      fn(total * s / shards, total * (s + 1) / shards);
    }
  });
}

// Per-entry double accumulation buffers shaped like a reference model.
// Folding in float updates at double precision keeps the running sum's
// error independent of the fold order's reassociation — the reason the
// streaming mean family matches the dense rules to float rounding.
struct DoubleSums {
  std::vector<std::vector<double>> acc;

  bool empty() const { return acc.empty(); }

  void init(const ModelParameters& shape) {
    acc.assign(shape.entries().size(), {});
    for (std::size_t e = 0; e < acc.size(); ++e) {
      acc[e].assign(
          static_cast<std::size_t>(shape.entries()[e].value.numel()), 0.0);
    }
  }

  // acc += scale * p
  void add_params(const ModelParameters& p, double scale) {
    for (std::size_t e = 0; e < acc.size(); ++e) {
      const float* src = p.entries()[e].value.data();
      double* dst = acc[e].data();
      const std::size_t n = acc[e].size();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] += scale * static_cast<double>(src[i]);
      }
    }
  }

  // acc += scale * (p - reference)
  void add_delta(const ModelParameters& p, const ModelParameters& reference,
                 double scale) {
    for (std::size_t e = 0; e < acc.size(); ++e) {
      const float* src = p.entries()[e].value.data();
      const float* ref = reference.entries()[e].value.data();
      double* dst = acc[e].data();
      const std::size_t n = acc[e].size();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] += scale * (static_cast<double>(src[i]) -
                           static_cast<double>(ref[i]));
      }
    }
  }

  // acc += other.acc, element-wise across shards.
  void add_sums(const DoubleSums& other, std::size_t shards) {
    for (std::size_t e = 0; e < acc.size(); ++e) {
      double* dst = acc[e].data();
      const double* src = other.acc[e].data();
      for_each_shard(acc[e].size(), shards,
                     [dst, src](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         dst[i] += src[i];
                       }
                     });
    }
  }

  // result[e][i] = base (or base[e][i]) + acc[e][i] * scale, written
  // into a copy of `shape`.
  ModelParameters render(const ModelParameters& shape, double scale,
                         bool add_to_shape, std::size_t shards) const {
    ModelParameters result = shape;
    for (std::size_t e = 0; e < acc.size(); ++e) {
      float* out = result.mutable_entries()[e].value.data();
      const double* sums = acc[e].data();
      for_each_shard(
          acc[e].size(), shards,
          [out, sums, scale, add_to_shape](std::size_t begin,
                                           std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              const double folded = sums[i] * scale;
              out[i] = static_cast<float>(
                  add_to_shape ? static_cast<double>(out[i]) + folded
                               : folded);
            }
          });
    }
    return result;
  }
};

// weighted_average: acc = sum w_k p_k, finish = acc / total.
class MeanStreamAccumulator final : public StreamingAccumulator {
 public:
  explicit MeanStreamAccumulator(std::size_t shards) : shards_(shards) {}

  void fold(ModelParameters update, double weight, int /*staleness*/,
            int client) override {
    ProfileScope prof(phase::kAggregate);
    check_fold("WeightedAverage", update, weight, client);
    if (folds_ == 0) {
      shape_ = update;
      sums_.init(shape_);
    } else {
      check_fold_structure("WeightedAverage", shape_, update, client);
    }
    sums_.add_params(update, weight);
    total_ += weight;
    ++folds_;
  }

  void merge(StreamingAccumulator& other) override {
    ProfileScope prof(phase::kAggregate);
    auto* peer = dynamic_cast<MeanStreamAccumulator*>(&other);
    if (peer == nullptr) {
      throw std::invalid_argument(
          "WeightedAverage: merge with a different rule's accumulator");
    }
    if (peer->folds_ == 0) return;
    if (folds_ == 0) {
      shape_ = std::move(peer->shape_);
      sums_ = std::move(peer->sums_);
      total_ = peer->total_;
      folds_ = peer->folds_;
    } else {
      check_fold_structure("WeightedAverage", shape_, peer->shape_, -1);
      sums_.add_sums(peer->sums_, shards_);
      total_ += peer->total_;
      folds_ += peer->folds_;
    }
    *peer = MeanStreamAccumulator(shards_);
  }

  std::size_t folds() const override { return folds_; }

  ModelParameters finish() override {
    ProfileScope prof(phase::kAggregate);
    check_finish_total("WeightedAverage", folds_, total_);
    return sums_.render(shape_, 1.0 / total_, /*add_to_shape=*/false, shards_);
  }

 private:
  std::size_t shards_;
  ModelParameters shape_;
  DoubleSums sums_;
  double total_ = 0.0;
  std::size_t folds_ = 0;
};

// norm_clipped_mean: acc = sum w_k clip_k (p_k - current),
// finish = current + acc / total. Holds `current` by reference.
class ClippedStreamAccumulator final : public StreamingAccumulator {
 public:
  ClippedStreamAccumulator(const ModelParameters& current, double clip_norm,
                           std::size_t shards)
      : current_(&current), clip_norm_(clip_norm), shards_(shards) {
    sums_.init(current);
  }

  void fold(ModelParameters update, double weight, int /*staleness*/,
            int client) override {
    ProfileScope prof(phase::kAggregate);
    check_fold("NormClippedMean", update, weight, client);
    check_fold_structure("NormClippedMean", *current_, update, client);
    // Pass 1: the delta's norm (needs only this one update — the reason
    // clipping streams while Krum's pairwise scoring cannot).
    double norm2 = 0.0;
    for (std::size_t e = 0; e < update.entries().size(); ++e) {
      const float* u = update.entries()[e].value.data();
      const float* c = current_->entries()[e].value.data();
      const std::size_t n =
          static_cast<std::size_t>(update.entries()[e].value.numel());
      for (std::size_t i = 0; i < n; ++i) {
        const double d =
            static_cast<double>(u[i]) - static_cast<double>(c[i]);
        norm2 += d * d;
      }
    }
    const double norm = std::sqrt(norm2);
    const double clip = norm > clip_norm_ ? clip_norm_ / norm : 1.0;
    sums_.add_delta(update, *current_, clip * weight);
    total_ += weight;
    ++folds_;
  }

  void merge(StreamingAccumulator& other) override {
    ProfileScope prof(phase::kAggregate);
    auto* peer = dynamic_cast<ClippedStreamAccumulator*>(&other);
    if (peer == nullptr) {
      throw std::invalid_argument(
          "NormClippedMean: merge with a different rule's accumulator");
    }
    if (peer->folds_ == 0) return;
    sums_.add_sums(peer->sums_, shards_);
    total_ += peer->total_;
    folds_ += peer->folds_;
    *peer = ClippedStreamAccumulator(*peer->current_, clip_norm_, shards_);
  }

  std::size_t folds() const override { return folds_; }

  ModelParameters finish() override {
    ProfileScope prof(phase::kAggregate);
    check_finish_total("NormClippedMean", folds_, total_);
    return sums_.render(*current_, 1.0 / total_, /*add_to_shape=*/true,
                        shards_);
  }

 private:
  const ModelParameters* current_;
  double clip_norm_;
  std::size_t shards_;
  DoubleSums sums_;
  double total_ = 0.0;
  std::size_t folds_ = 0;
};

// staleness_mix: folds are DELTAS; acc = sum u_i d_i with
// u_i = w_i s(tau_i), finish = current + server_mix * acc / total.
class MixStreamAccumulator final : public StreamingAccumulator {
 public:
  MixStreamAccumulator(const ModelParameters& current,
                       const StalenessPolicy& staleness, double server_mix,
                       std::size_t shards)
      : current_(&current),
        staleness_(staleness),
        server_mix_(server_mix),
        shards_(shards) {
    sums_.init(current);
  }

  void fold(ModelParameters update, double weight, int staleness,
            int client) override {
    ProfileScope prof(phase::kAggregate);
    check_fold("StalenessDiscountedMix", update, weight, client);
    check_fold_structure("StalenessDiscountedMix", *current_, update, client);
    const double u = weight * staleness_.weight(staleness);
    sums_.add_params(update, u);
    total_ += u;
    ++folds_;
  }

  void merge(StreamingAccumulator& other) override {
    ProfileScope prof(phase::kAggregate);
    auto* peer = dynamic_cast<MixStreamAccumulator*>(&other);
    if (peer == nullptr) {
      throw std::invalid_argument(
          "StalenessDiscountedMix: merge with a different rule's accumulator");
    }
    if (peer->folds_ == 0) return;
    sums_.add_sums(peer->sums_, shards_);
    total_ += peer->total_;
    folds_ += peer->folds_;
    *peer = MixStreamAccumulator(*peer->current_, staleness_, server_mix_,
                                 shards_);
  }

  std::size_t folds() const override { return folds_; }

  ModelParameters finish() override {
    ProfileScope prof(phase::kAggregate);
    check_finish_total("StalenessDiscountedMix", folds_, total_);
    return sums_.render(*current_, server_mix_ / total_, /*add_to_shape=*/true,
                        shards_);
  }

 private:
  const ModelParameters* current_;
  StalenessPolicy staleness_;
  double server_mix_;
  std::size_t shards_;
  DoubleSums sums_;
  double total_ = 0.0;
  std::size_t folds_ = 0;
};

// Streaming quantile sketch for the rank-based rules: a fixed-bin
// histogram per coordinate over [current[c] - span, current[c] + span]
// (outliers clamp to the edge bins). Integer bin counts make merges
// exact and order-independent, so the sketch — unlike the double sums
// — is bit-identical across every lane/shard layout by construction.
// finish() walks each coordinate's bin ranks: the median reads the
// middle rank(s), the trimmed mean averages the mass of ranks
// [g, n - g), both answering with bucket midpoints (in-span error at
// most one bin width = 2 * span / bins).
class SketchStreamAccumulator final : public StreamingAccumulator {
 public:
  SketchStreamAccumulator(const char* rule, const ModelParameters& current,
                          int bins, double span, double trim_fraction,
                          std::size_t shards)
      : rule_(rule),
        current_(&current),
        bins_(static_cast<std::size_t>(bins)),
        span_(span),
        trim_fraction_(trim_fraction),
        shards_(shards) {
    counts_.assign(current.entries().size(), {});
    for (std::size_t e = 0; e < counts_.size(); ++e) {
      counts_[e].assign(
          static_cast<std::size_t>(current.entries()[e].value.numel()) * bins_,
          0);
    }
  }

  void fold(ModelParameters update, double weight, int /*staleness*/,
            int client) override {
    ProfileScope prof(phase::kAggregate);
    check_fold(rule_, update, weight, client);
    check_fold_structure(rule_, *current_, update, client);
    const double inv_width =
        static_cast<double>(bins_) / (2.0 * span_);
    for (std::size_t e = 0; e < counts_.size(); ++e) {
      const float* u = update.entries()[e].value.data();
      const float* c = current_->entries()[e].value.data();
      std::uint32_t* bins = counts_[e].data();
      const std::size_t n = counts_[e].size() / bins_;
      for (std::size_t i = 0; i < n; ++i) {
        const double rel =
            (static_cast<double>(u[i]) - static_cast<double>(c[i]) + span_) *
            inv_width;
        std::size_t b = rel <= 0.0 ? 0 : static_cast<std::size_t>(rel);
        if (b >= bins_) b = bins_ - 1;
        ++bins[i * bins_ + b];
      }
    }
    total_ += weight;
    ++folds_;
  }

  void merge(StreamingAccumulator& other) override {
    ProfileScope prof(phase::kAggregate);
    auto* peer = dynamic_cast<SketchStreamAccumulator*>(&other);
    if (peer == nullptr || peer->bins_ != bins_ || peer->span_ != span_) {
      throw std::invalid_argument(
          std::string(rule_) +
          ": merge with an incompatible sketch accumulator");
    }
    if (peer->folds_ == 0) return;
    for (std::size_t e = 0; e < counts_.size(); ++e) {
      std::uint32_t* dst = counts_[e].data();
      const std::uint32_t* src = peer->counts_[e].data();
      for_each_shard(counts_[e].size(), shards_,
                     [dst, src](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         dst[i] += src[i];
                       }
                     });
    }
    total_ += peer->total_;
    folds_ += peer->folds_;
    *peer = SketchStreamAccumulator(rule_, *peer->current_,
                                    static_cast<int>(bins_), span_,
                                    trim_fraction_, shards_);
  }

  std::size_t folds() const override { return folds_; }

  ModelParameters finish() override {
    ProfileScope prof(phase::kAggregate);
    check_finish_total(rule_, folds_, total_);
    const std::size_t n = folds_;
    const std::size_t g = static_cast<std::size_t>(
        trim_fraction_ * static_cast<double>(n));
    const double width = 2.0 * span_ / static_cast<double>(bins_);
    const bool median = trim_fraction_ < 0.0;
    ModelParameters result = *current_;
    for (std::size_t e = 0; e < counts_.size(); ++e) {
      float* out = result.mutable_entries()[e].value.data();
      const std::uint32_t* bins = counts_[e].data();
      const std::size_t numel = counts_[e].size() / bins_;
      const std::size_t nbins = bins_;
      const double span = span_;
      for_each_shard(
          numel, shards_,
          [out, bins, numel, nbins, span, width, n, g,
           median](std::size_t begin, std::size_t end) {
            (void)numel;
            for (std::size_t i = begin; i < end; ++i) {
              const std::uint32_t* row = bins + i * nbins;
              const double base = static_cast<double>(out[i]) - span;
              if (median) {
                // Value(s) at the middle rank(s), bucket midpoints.
                const std::size_t hi_rank = n / 2;
                const std::size_t lo_rank = n % 2 == 1 ? hi_rank : hi_rank - 1;
                double lo = 0.0, hi = 0.0;
                std::size_t cum = 0;
                for (std::size_t b = 0; b < nbins; ++b) {
                  const std::size_t next = cum + row[b];
                  const double mid =
                      base + (static_cast<double>(b) + 0.5) * width;
                  if (cum <= lo_rank && lo_rank < next) lo = mid;
                  if (cum <= hi_rank && hi_rank < next) {
                    hi = mid;
                    break;
                  }
                  cum = next;
                }
                out[i] = static_cast<float>((lo + hi) / 2.0);
              } else {
                // Mass of ranks [g, n - g): each bin contributes the
                // overlap of its cumulative rank range, valued at its
                // midpoint.
                double acc = 0.0;
                std::size_t cum = 0;
                for (std::size_t b = 0; b < nbins && cum < n - g; ++b) {
                  const std::size_t next = cum + row[b];
                  const std::size_t lo = cum > g ? cum : g;
                  const std::size_t hi = next < n - g ? next : n - g;
                  if (hi > lo) {
                    acc += static_cast<double>(hi - lo) *
                           (base + (static_cast<double>(b) + 0.5) * width);
                  }
                  cum = next;
                }
                out[i] = static_cast<float>(
                    acc / static_cast<double>(n - 2 * g));
              }
            }
          });
    }
    return result;
  }

 private:
  const char* rule_;
  const ModelParameters* current_;
  std::size_t bins_;
  double span_;
  double trim_fraction_;  // < 0 = median mode
  std::size_t shards_;
  std::vector<std::vector<std::uint32_t>> counts_;
  double total_ = 0.0;
  std::size_t folds_ = 0;
};

void require_streaming_current(const char* rule,
                               const ModelParameters& current) {
  if (current.empty()) {
    throw std::invalid_argument(
        std::string(rule) +
        ": empty `current` — the streaming accumulator anchors on the "
        "server's model (delta reference / sketch center), so the caller "
        "must pass it");
  }
}

}  // namespace

std::unique_ptr<StreamingAccumulator> WeightedAverage::accumulator(
    const ModelParameters& /*current*/, const ShardLayout& layout) const {
  return std::make_unique<MeanStreamAccumulator>(layout.shards);
}

std::unique_ptr<StreamingAccumulator> NormClippedMean::accumulator(
    const ModelParameters& current, const ShardLayout& layout) const {
  require_streaming_current("NormClippedMean", current);
  return std::make_unique<ClippedStreamAccumulator>(current, clip_norm_,
                                                    layout.shards);
}

std::unique_ptr<StreamingAccumulator> StalenessDiscountedMix::accumulator(
    const ModelParameters& current, const ShardLayout& layout) const {
  require_streaming_current("StalenessDiscountedMix", current);
  return std::make_unique<MixStreamAccumulator>(current, staleness_,
                                                server_mix_, layout.shards);
}

std::unique_ptr<StreamingAccumulator> CoordinateMedian::accumulator(
    const ModelParameters& current, const ShardLayout& layout) const {
  require_streaming_current("CoordinateMedian", current);
  return std::make_unique<SketchStreamAccumulator>(
      "CoordinateMedian", current, sketch_bins_, sketch_span_,
      /*trim_fraction=*/-1.0, layout.shards);
}

std::unique_ptr<StreamingAccumulator> TrimmedMean::accumulator(
    const ModelParameters& current, const ShardLayout& layout) const {
  require_streaming_current("TrimmedMean", current);
  return std::make_unique<SketchStreamAccumulator>(
      "TrimmedMean", current, sketch_bins_, sketch_span_, trim_fraction_,
      layout.shards);
}

namespace {

void register_builtin_rules(AggregationRegistry& registry) {
  registry.add("weighted_average", [](const AggregationConfig&) {
    return std::make_unique<WeightedAverage>();
  });
  registry.add("coordinate_median", [](const AggregationConfig& c) {
    return std::make_unique<CoordinateMedian>(c.sketch_bins, c.sketch_span);
  });
  registry.add("trimmed_mean", [](const AggregationConfig& c) {
    return std::make_unique<TrimmedMean>(c.trim_fraction, c.sketch_bins,
                                         c.sketch_span);
  });
  registry.add("norm_clipped_mean", [](const AggregationConfig& c) {
    return std::make_unique<NormClippedMean>(c.clip_norm);
  });
  registry.add("krum", [](const AggregationConfig& c) {
    return std::make_unique<Krum>(c.krum_f);
  });
  registry.add("multi_krum", [](const AggregationConfig& c) {
    return std::make_unique<MultiKrum>(c.krum_f, c.krum_m);
  });
  registry.add("staleness_mix", [](const AggregationConfig& c) {
    return std::make_unique<StalenessDiscountedMix>(c.staleness,
                                                    c.server_mix);
  });
}

}  // namespace

AggregationRegistry& AggregationRegistry::global() {
  static AggregationRegistry* registry = [] {
    auto* r = new AggregationRegistry();
    register_builtin_rules(*r);
    return r;
  }();
  return *registry;
}

void AggregationRegistry::add(std::string name, Factory factory) {
  if (name.empty()) {
    throw std::invalid_argument("AggregationRegistry::add: empty name");
  }
  if (!factory) {
    throw std::invalid_argument(
        "AggregationRegistry::add: null factory for '" + name + "'");
  }
  if (!factories_.emplace(std::move(name), std::move(factory)).second) {
    throw std::invalid_argument(
        "AggregationRegistry::add: duplicate registration");
  }
}

bool AggregationRegistry::contains(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> AggregationRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::unique_ptr<AggregationRule> AggregationRegistry::create(
    std::string_view name, const AggregationConfig& config) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("AggregationRegistry: unknown rule '" +
                                std::string(name) + "' (registered: " + known +
                                ")");
  }
  return it->second(config);
}

std::unique_ptr<AggregationRule> make_aggregation_rule(
    const AggregationConfig& config) {
  if (config.rule.empty()) {
    throw std::invalid_argument(
        "make_aggregation_rule: empty rule name — the algorithm default is "
        "chosen by the caller, not the registry");
  }
  return AggregationRegistry::global().create(config.rule, config);
}

}  // namespace fleda
