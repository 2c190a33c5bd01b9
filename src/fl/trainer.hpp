// FederatedAlgorithm: common interface for all decentralized training
// schemes in the paper (Fig. 1 round loop; Fig. 2 personalization
// variants). run() executes R rounds over a set of clients and returns
// one final model per client — for non-personalized algorithms all K
// entries are the same global model, for personalized ones they
// differ.
//
// Every run executes on the simulation engine (src/sim): parameter
// exchanges go through a metered Channel with per-client links, and
// round completion is a scheduling policy on the virtual clock — the
// synchronous algorithms use the FederationSim barrier policy, the
// asynchronous ones (AsyncFedAvg) schedule their own events. With
// default (homogeneous, always-online) profiles and a lossless
// channel, the sync path is bit-identical to a direct exchange — the
// engine only attaches simulated time to it.
//
// Every synchronous round has one body (Fig. 1: deploy, train locally,
// aggregate): each cohort member trains inside a fold lane of
// Channel::collect_streaming, its decoded upload folds into a
// StreamingAccumulator, and the lanes merge in lane order.
// AggregationConfig::streaming only chooses the accumulator: the
// rule's native one, or the buffered one whose finish() is the dense
// aggregate(). An attached anomaly detector keeps the buffered one.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fl/anomaly.hpp"
#include "fl/client.hpp"
#include "fl/participation.hpp"
#include "fl/server.hpp"
#include "sim/federation.hpp"

namespace fleda {

class TelemetrySink;

struct FLRunOptions {
  int rounds = 50;  // R (for AsyncFedAvg: number of server aggregations)
  ClientTrainConfig client;
  std::uint64_t seed = 1;  // initialization seed for global model(s)
  // Who takes part in each synchronous round (full participation,
  // uniform client sampling, availability-aware skipping). The
  // event-driven asynchronous algorithms ignore this: every client
  // runs its own loop and offline clients simply rejoin later.
  ParticipationConfig participation;
  // How the cohort's updates become the next model, selected by
  // AggregationRegistry name. Empty rule = the algorithm's historical
  // default (WeightedAverage for sync loops, AsyncConfig-derived
  // StalenessDiscountedMix for AsyncFedAvg); a robust rule
  // ("coordinate_median", "trimmed_mean", "norm_clipped_mean") slots
  // into any algorithm by name.
  AggregationConfig aggregation;
  // Parameter-exchange transport: every deployment/upload of the round
  // loop goes through a Channel built from this config. The default
  // (Fp32 both ways) is lossless and bit-identical to a direct
  // exchange, only metered.
  CommConfig comm;
  // Client heterogeneity (compute speed, per-client links,
  // availability) and the compute-time model for the virtual clock.
  // Default: homogeneous, always-online reference clients.
  SimConfig sim;
  // Optional out-param: filled with the run's cumulative channel
  // statistics (bytes, messages, simulated latency) before run returns.
  ChannelStats* comm_stats = nullptr;
  // Optional out-param: the simulation summary (total virtual time,
  // event count, and — when `trace` is set — the full event trace).
  SimReport* sim_report = nullptr;
  bool trace = false;
  // Optional per-round telemetry sink (obs/telemetry.hpp): the round
  // loops record cohort size, attacker flags and staleness into it and
  // close one RoundTelemetry record per channel round. When null, run()
  // still honors FLEDA_TELEMETRY_FILE by streaming to a private sink.
  TelemetrySink* telemetry = nullptr;
  // Server-side attacker detection (fl/anomaly.hpp). When
  // anomaly.enabled, run() scores every cohort's update deltas and
  // records flags into telemetry — a pure observer: results are
  // bit-identical with detection on or off. `detector` / `reputation`
  // optionally supply caller-owned instances (to read tallies after
  // the run, or to carry a reputation book across runs); when null,
  // run() creates private ones as needed. kReputationWeighted
  // participation requires a book: either pass `reputation` or enable
  // the detector so run() can build the detect->react loop itself.
  AnomalyConfig anomaly;
  AnomalyDetector* detector = nullptr;
  ReputationBook* reputation = nullptr;
  // Optional progress hook: (round, per-client deployed parameters).
  std::function<void(int, const std::vector<ModelParameters>&)> on_round;
};

class FederatedAlgorithm {
 public:
  virtual ~FederatedAlgorithm() = default;

  virtual std::string name() const = 0;

  // Whether run_rounds consults the ParticipationPolicy. Event-driven
  // algorithms (AsyncFedAvg) return false: every client runs its own
  // loop, so reporting layers must not claim a sampling policy was
  // applied.
  virtual bool uses_participation() const { return true; }

  // Runs the full decentralized training; returns per-client final
  // models (size == clients.size()). Owns the simulation lifecycle
  // (template method): builds a Channel from opts.comm, a SimEngine
  // from opts.sim and a ParticipationPolicy from opts.participation,
  // hands the bound FederationSim and the policy to run_rounds, and
  // exports the cumulative channel stats / sim report afterwards — so
  // no algorithm can forget the accounting.
  std::vector<ModelParameters> run(std::vector<Client>& clients,
                                   const ModelFactory& factory,
                                   const FLRunOptions& opts);

 protected:
  // Algorithm body: R rounds of parameter exchange scheduled on `sim`,
  // each round's cohort drawn from `participation` (stateful per run).
  virtual std::vector<ModelParameters> run_rounds(
      std::vector<Client>& clients, const ModelFactory& factory,
      const FLRunOptions& opts, FederationSim& sim,
      ParticipationPolicy& participation) = 0;

  // Lets wrapper algorithms (FineTune) run their base algorithm's
  // rounds on the shared outer simulation despite protected access.
  static std::vector<ModelParameters> run_rounds_of(
      FederatedAlgorithm& algo, std::vector<Client>& clients,
      const ModelFactory& factory, const FLRunOptions& opts,
      FederationSim& sim, ParticipationPolicy& participation);

  // The rule opts.aggregation names, or the synchronous loops'
  // historical WeightedAverage default when no rule is named. Round
  // loops create one per run and aggregate through it.
  static std::unique_ptr<AggregationRule> sync_aggregation_rule(
      const FLRunOptions& opts);

  // The round's cohort from `participation`, evaluated at the current
  // virtual-clock time (one policy call per round, on this thread).
  static std::vector<std::size_t> select_cohort(
      ParticipationPolicy& participation, int round,
      std::size_t num_clients, const FLRunOptions& opts,
      const FederationSim& sim);

  // How a run's rounds fold their cohorts, chosen once per run by
  // round_fold(): the rule's native streaming accumulator when
  // opts.aggregation.streaming is on and no anomaly detector is
  // attached, the rule's buffered accumulator otherwise (a detector
  // scores the whole cohort; buffered finish() is the dense
  // aggregate(), so dense results are bit-identical). Rules without a
  // native form (Krum family) are buffered either way.
  struct RoundFold {
    const AggregationRule* rule = nullptr;
    bool native = false;
    std::size_t shards = 0;

    // Fold-lane bounds over a cohort of n. Native accumulators use
    // kFoldLanes (their partial sums depend on the partition, which
    // must not depend on the pool); buffered results do not depend on
    // it, so their lanes follow the thread pool and training keeps the
    // pool's full parallelism.
    std::vector<std::size_t> lanes(std::size_t n) const;
    // One lane's accumulator anchored on `current` (which must outlive
    // it), for a cohort of n.
    std::unique_ptr<StreamingAccumulator> accumulator(
        const ModelParameters& current, std::size_t n) const;
  };
  static RoundFold round_fold(const FLRunOptions& opts,
                              const AggregationRule& rule,
                              const FederationSim& sim);

  // The synchronous round that every FedAvg-style loop runs: broadcasts
  // `global` to the cohort, trains each member inside its fold lane,
  // folds its decoded upload (weighted by weights[client], the
  // federation-indexed sample counts) and returns the next global
  // model. Throws like the rule on an empty cohort.
  static ModelParameters global_round(
      std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
      const ModelParameters& global, const std::vector<double>& weights,
      const RoundFold& fold, const ClientTrainConfig& cfg, FederationSim& sim);

  // The clustered form (IFCA, AssignedClustering): member i trains from
  // received[i], the deployment it decoded (callers broadcast, so IFCA
  // keeps its C-wave selection broadcast), and its upload folds into
  // the accumulator of cluster cluster_of[i], anchored on that
  // cluster's model. Every cluster with members is replaced by its
  // aggregate; a cluster nobody trained keeps its model.
  static void cluster_round(
      std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
      const std::vector<std::shared_ptr<const ModelParameters>>& received,
      const std::vector<std::size_t>& cluster_of,
      std::vector<ModelParameters>& cluster_models,
      const std::vector<double>& weights, const RoundFold& fold,
      const ClientTrainConfig& cfg, FederationSim& sim);

  // For loops that mix updates themselves (AlphaPortionSync,
  // FedProxLG): deployed[i] goes to client cohort[i], the round runs
  // like the two above, and the decoded updates come back
  // cohort-indexed.
  static std::vector<ModelParameters> cohort_local_updates(
      std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
      const std::vector<const ModelParameters*>& deployed,
      const ClientTrainConfig& cfg, FederationSim& sim);

 private:
  // Shared by global_round and cluster_round: trains the cohort and
  // folds member i's upload into group group_of[i]'s accumulator,
  // anchored on anchors[group]; returns one lane-merged accumulator per
  // group.
  static std::vector<std::unique_ptr<StreamingAccumulator>> fold_cohort(
      std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
      const std::vector<std::shared_ptr<const ModelParameters>>& received,
      const std::vector<std::size_t>& group_of,
      const std::vector<const ModelParameters*>& anchors,
      const std::vector<double>& weights, const RoundFold& fold,
      const ClientTrainConfig& cfg, FederationSim& sim);
};

}  // namespace fleda
