#include "fl/trainer.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace fleda {

std::vector<ModelParameters> FederatedAlgorithm::run(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts) {
  Channel channel(opts.comm);
  channel.set_links(links_from_profiles(opts.sim, clients.size()));
  SimEngine engine(opts.sim, opts.comm, clients.size());
  engine.set_trace_enabled(opts.trace);
  FederationSim sim(channel, engine);
  // Direct algo.run() callers get FLEDA_TELEMETRY_FILE streaming even
  // without wiring a sink themselves; an explicit sink wins.
  std::unique_ptr<TelemetrySink> env_sink;
  TelemetrySink* telemetry = opts.telemetry;
  if (telemetry == nullptr) {
    const std::string path = TelemetrySink::env_path();
    if (!path.empty()) {
      env_sink = std::make_unique<TelemetrySink>(path);
      telemetry = env_sink.get();
    }
  }
  sim.set_telemetry(telemetry);
  // Defense wiring: an explicit detector/book wins; otherwise run()
  // creates private ones when the config calls for them. The book only
  // fills when a detector feeds it, so reputation-weighted sampling
  // without either is a silent uniform fallback — rejected instead.
  std::unique_ptr<AnomalyDetector> own_detector;
  AnomalyDetector* detector = opts.detector;
  if (detector == nullptr && opts.anomaly.enabled) {
    own_detector = std::make_unique<AnomalyDetector>(opts.anomaly);
    detector = own_detector.get();
  }
  std::unique_ptr<ReputationBook> own_book;
  ReputationBook* reputation = opts.reputation;
  const bool wants_reputation =
      opts.participation.kind == ParticipationKind::kReputationWeighted;
  if (reputation == nullptr && wants_reputation) {
    if (detector == nullptr) {
      throw std::invalid_argument(
          "FederatedAlgorithm::run: kReputationWeighted participation "
          "needs verdicts to weight by — set FLRunOptions::anomaly.enabled "
          "(or pass detector/reputation explicitly)");
    }
    own_book = std::make_unique<ReputationBook>();
    reputation = own_book.get();
  }
  sim.set_anomaly(detector, reputation);
  // Importance weights for kImportanceSample: each client's sample
  // count (more data = more informative per round), optionally scaled
  // by (1 + last training loss) so clients whose local objective is
  // still high are revisited sooner. Evaluated at select time on the
  // coordinator thread; `clients` outlives the policy.
  ImportanceSample::WeightProvider importance;
  if (opts.participation.kind == ParticipationKind::kImportanceSample) {
    const bool by_loss = opts.participation.loss_weighted;
    importance = [&clients, by_loss](std::size_t k) {
      double w = static_cast<double>(clients[k].num_train());
      if (by_loss) {
        w *= 1.0 + static_cast<double>(clients[k].last_train_loss());
      }
      return w;
    };
  }
  std::unique_ptr<ParticipationPolicy> participation =
      make_participation_policy(opts.participation, reputation,
                                std::move(importance));
  std::vector<ModelParameters> finals =
      run_rounds(clients, factory, opts, sim, *participation);
  if (opts.comm_stats != nullptr) *opts.comm_stats = channel.stats();
  if (opts.sim_report != nullptr) *opts.sim_report = engine.report();
  return finals;
}

std::vector<ModelParameters> FederatedAlgorithm::run_rounds_of(
    FederatedAlgorithm& algo, std::vector<Client>& clients,
    const ModelFactory& factory, const FLRunOptions& opts,
    FederationSim& sim, ParticipationPolicy& participation) {
  return algo.run_rounds(clients, factory, opts, sim, participation);
}

std::unique_ptr<AggregationRule> FederatedAlgorithm::sync_aggregation_rule(
    const FLRunOptions& opts) {
  if (opts.aggregation.rule.empty()) {
    return std::make_unique<WeightedAverage>();
  }
  std::unique_ptr<AggregationRule> rule =
      make_aggregation_rule(opts.aggregation);
  if (rule->folds_into_current()) {
    // A mixing rule treats its cohort as deltas; fed the sync
    // barrier's full-parameter updates it would compound the model
    // geometrically (global += mix * avg(full models)) and "diverge"
    // with no attacker in sight.
    throw std::invalid_argument(
        "aggregation rule '" + rule->name() +
        "' folds deltas into the current model and cannot aggregate a "
        "synchronous round's full-parameter updates (use it with "
        "AsyncFedAvg, or pick an averaging rule)");
  }
  return rule;
}

std::vector<std::size_t> FederatedAlgorithm::select_cohort(
    ParticipationPolicy& participation, int round, std::size_t num_clients,
    const FLRunOptions& opts, const FederationSim& sim) {
  ParticipationContext ctx;
  ctx.round = round;
  ctx.num_clients = num_clients;
  ctx.now = sim.now();
  ctx.sim = &opts.sim;
  return participation.select(ctx);
}

namespace {

// The channel's per-lane encode/decode touches per-client state
// (error-feedback residuals, downlink references), which is only safe
// for distinct indices — require the policies' strictly ascending
// order instead of racing on duplicates.
void validate_cohort(const char* where, std::size_t num_clients,
                     const std::vector<std::size_t>& cohort) {
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    if (cohort[i] >= num_clients) {
      throw std::out_of_range(std::string(where) + ": client index " +
                              std::to_string(cohort[i]) + " >= " +
                              std::to_string(num_clients));
    }
    if (i > 0 && cohort[i] <= cohort[i - 1]) {
      throw std::invalid_argument(
          std::string(where) +
          ": cohort indices must be strictly ascending (got " +
          std::to_string(cohort[i]) + " after " +
          std::to_string(cohort[i - 1]) + ")");
    }
  }
}

// Adaptive attackers carry state (their trajectory estimate) across
// rounds. Slot pointers are gathered on the coordinator thread —
// growing the deque inside a parallel loop would race — and each slot
// is touched only by its owning client's lane.
std::vector<AttackState*> gather_attack_states(
    FederationSim& sim, const std::vector<std::size_t>& cohort) {
  std::vector<AttackState*> states(cohort.size(), nullptr);
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    if (sim.engine().profile(cohort[i]).attack.kind ==
        AttackKind::kAdaptiveScaled) {
      states[i] = sim.attack_state(cohort[i]);
    }
  }
  return states;
}

void record_cohort_telemetry(FederationSim& sim,
                             const std::vector<std::size_t>& cohort) {
  TelemetrySink* sink = sim.telemetry();
  if (sink == nullptr) return;
  int attackers = 0;
  for (std::size_t k : cohort) {
    if (sim.engine().profile(k).attack.kind != AttackKind::kNone) {
      ++attackers;
    }
  }
  sink->record_cohort(static_cast<int>(cohort.size()), attackers);
  // Every sync update is aggregated at the version it trained on.
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    sink->record_staleness(0);
  }
}

// Receives one member's decoded upload on its lane's thread:
// (lane, cohort position, decoded update).
using UpdateConsumer =
    std::function<void(std::size_t, std::size_t, ModelParameters&&)>;

// The one synchronous round body. received[i] is the deployment client
// cohort[i] decoded; inside lane l of `lanes` each member trains from
// it, a Byzantine member corrupts its upload, the upload goes through
// the uplink codec, and `consume` gets the decoded update. With a
// detector attached each member's delta against received[i] is taken
// in its lane and the cohort is scored once afterwards. Then the
// cohort's telemetry is recorded and the barrier closes at the slowest
// member.
void train_cohort(
    std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
    const std::vector<std::shared_ptr<const ModelParameters>>& received,
    const std::vector<std::size_t>& lanes, const ClientTrainConfig& cfg,
    FederationSim& sim, const UpdateConsumer& consume) {
  if (cohort.size() != received.size()) {
    throw std::invalid_argument("train_cohort: size mismatch");
  }
  validate_cohort("train_cohort", clients.size(), cohort);
  Channel& channel = sim.channel();
  // Byzantine behaviors fire between training and upload: a
  // compromised client trains honestly (its rng stream is unchanged)
  // and corrupts what it sends. Completed channel rounds disambiguate
  // repeated attacks by the same client (the noise-stream nonce).
  const std::uint64_t round_nonce = channel.stats().rounds.size();
  std::vector<AttackState*> attack_states = gather_attack_states(sim, cohort);
  // Uplink: the decoded deployment is the shared reference for delta
  // codecs (both sides hold it).
  std::vector<const ModelParameters*> references;
  references.reserve(received.size());
  for (const auto& r : received) references.push_back(r.get());
  // Server-side detection sees exactly what the aggregator sees: the
  // decoded update against the deployment the member trained from.
  const bool observe = sim.anomaly_detector() != nullptr;
  std::vector<ModelParameters> deltas(observe ? cohort.size() : 0);
  channel.collect_streaming(
      cohort, references, lanes,
      [&](std::size_t i) {
        const std::size_t k = cohort[i];
        ModelParameters update = clients[k].local_update(*received[i], cfg);
        const AttackSpec& attack = sim.engine().profile(k).attack;
        if (attack.kind != AttackKind::kNone) {
          update = apply_attack(attack, std::move(update), *received[i], k,
                                round_nonce, attack_states[i]);
        }
        return update;
      },
      [&](std::size_t lane, std::size_t i, ModelParameters&& decoded) {
        if (observe) {
          deltas[i] = decoded;
          if (deltas[i].structurally_equal(*references[i])) {
            deltas[i].add_scaled(*references[i], -1.0);
          }
        }
        consume(lane, i, std::move(decoded));
      });
  if (observe) {
    std::vector<const ModelParameters*> delta_ptrs;
    delta_ptrs.reserve(deltas.size());
    for (const ModelParameters& d : deltas) delta_ptrs.push_back(&d);
    sim.observe_cohort_deltas(cohort, delta_ptrs);
  }
  record_cohort_telemetry(sim, cohort);
  // Barrier policy: the round's events run on the virtual clock and
  // the round closes at the slowest cohort member's upload.
  sim.finish_sync_round(cfg.steps, cohort);
}

// As many lanes as parallel_for would cut n items into (4 chunks per
// pool thread), so a round whose result ignores the partition trains
// with the pool's full parallelism on any host.
std::vector<std::size_t> pool_lanes(std::size_t n) {
  const std::size_t chunks = 4 * ThreadPool::global().size();
  return fold_lane_offsets(n, std::max<std::size_t>(1, std::min(n, chunks)));
}

}  // namespace

std::vector<std::size_t> FederatedAlgorithm::RoundFold::lanes(
    std::size_t n) const {
  return native ? fold_lane_offsets(n, kFoldLanes) : pool_lanes(n);
}

std::unique_ptr<StreamingAccumulator>
FederatedAlgorithm::RoundFold::accumulator(const ModelParameters& current,
                                           std::size_t n) const {
  if (!native) return rule->buffered_accumulator(current);
  ShardLayout layout;
  layout.cohort_size = n;
  layout.shards = shards;
  return rule->accumulator(current, layout);
}

FederatedAlgorithm::RoundFold FederatedAlgorithm::round_fold(
    const FLRunOptions& opts, const AggregationRule& rule,
    const FederationSim& sim) {
  RoundFold fold;
  fold.rule = &rule;
  fold.native =
      opts.aggregation.streaming && sim.anomaly_detector() == nullptr;
  fold.shards = opts.aggregation.shards;
  return fold;
}

std::vector<std::unique_ptr<StreamingAccumulator>>
FederatedAlgorithm::fold_cohort(
    std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
    const std::vector<std::shared_ptr<const ModelParameters>>& received,
    const std::vector<std::size_t>& group_of,
    const std::vector<const ModelParameters*>& anchors,
    const std::vector<double>& weights, const RoundFold& fold,
    const ClientTrainConfig& cfg, FederationSim& sim) {
  const std::vector<std::size_t> lanes = fold.lanes(cohort.size());
  const std::size_t num_lanes = lanes.size() - 1;
  // accs[lane][group]
  std::vector<std::vector<std::unique_ptr<StreamingAccumulator>>> accs(
      num_lanes);
  for (auto& lane : accs) {
    for (const ModelParameters* anchor : anchors) {
      lane.push_back(fold.accumulator(*anchor, cohort.size()));
    }
  }
  const auto consume = [&](std::size_t lane, std::size_t i,
                           ModelParameters&& decoded) {
    const std::size_t k = cohort[i];
    accs[lane][group_of[i]]->fold(std::move(decoded), weights[k],
                                  /*staleness=*/0, static_cast<int>(k));
  };
  train_cohort(clients, cohort, received, lanes, cfg, sim, consume);
  // Lane order is the merge order — part of the deterministic contract.
  for (std::size_t l = 1; l < num_lanes; ++l) {
    for (std::size_t g = 0; g < anchors.size(); ++g) {
      accs[0][g]->merge(*accs[l][g]);
    }
  }
  return std::move(accs[0]);
}

ModelParameters FederatedAlgorithm::global_round(
    std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
    const ModelParameters& global, const std::vector<double>& weights,
    const RoundFold& fold, const ClientTrainConfig& cfg, FederationSim& sim) {
  const std::vector<const ModelParameters*> deployed(cohort.size(), &global);
  return fold_cohort(clients, cohort, sim.channel().broadcast(deployed, cohort),
                     std::vector<std::size_t>(cohort.size(), 0), {&global},
                     weights, fold, cfg, sim)[0]
      ->finish();
}

void FederatedAlgorithm::cluster_round(
    std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
    const std::vector<std::shared_ptr<const ModelParameters>>& received,
    const std::vector<std::size_t>& cluster_of,
    std::vector<ModelParameters>& cluster_models,
    const std::vector<double>& weights, const RoundFold& fold,
    const ClientTrainConfig& cfg, FederationSim& sim) {
  if (cluster_of.size() != cohort.size()) {
    throw std::invalid_argument("cluster_round: size mismatch");
  }
  std::vector<const ModelParameters*> anchors;
  for (const ModelParameters& m : cluster_models) anchors.push_back(&m);
  std::vector<std::unique_ptr<StreamingAccumulator>> accs = fold_cohort(
      clients, cohort, received, cluster_of, anchors, weights, fold, cfg, sim);
  for (std::size_t c = 0; c < accs.size(); ++c) {
    if (accs[c]->folds() == 0) continue;  // dead cluster keeps its model
    cluster_models[c] = accs[c]->finish();
  }
}

std::vector<ModelParameters> FederatedAlgorithm::cohort_local_updates(
    std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
    const std::vector<const ModelParameters*>& deployed,
    const ClientTrainConfig& cfg, FederationSim& sim) {
  // Downlink: cohort members train from what they decode, not from the
  // server-side snapshot — a lossy codec's error feeds into training.
  std::vector<ModelParameters> updates(cohort.size());
  train_cohort(clients, cohort, sim.channel().broadcast(deployed, cohort),
               pool_lanes(cohort.size()), cfg, sim,
               [&](std::size_t, std::size_t i, ModelParameters&& decoded) {
                 updates[i] = std::move(decoded);
               });
  return updates;
}

}  // namespace fleda
