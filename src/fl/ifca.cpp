#include "fl/ifca.hpp"

#include <stdexcept>

#include "util/thread_pool.hpp"

namespace fleda {

std::vector<ModelParameters> IFCA::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& participation) {
  if (num_clusters_ <= 0) throw std::invalid_argument("IFCA: C <= 0");
  Rng rng(opts.seed);

  // Independent initialization per cluster (the algorithm relies on
  // initial diversity for cluster identifiability).
  std::vector<ModelParameters> cluster_models;
  cluster_models.reserve(static_cast<std::size_t>(num_clusters_));
  for (int c = 0; c < num_clusters_; ++c) {
    cluster_models.push_back(initial_model_parameters(factory, rng));
  }

  const std::vector<double> weights = Server::client_weights(clients);
  const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);
  const RoundFold fold = round_fold(opts, *rule, sim);
  assignment_.assign(clients.size(), 0);
  const std::size_t C = static_cast<std::size_t>(num_clusters_);

  for (int r = 0; r < opts.rounds; ++r) {
    const std::vector<std::size_t> cohort =
        select_cohort(participation, r, clients.size(), opts, sim);

    // 1) Selection broadcast: IFCA ships ALL C cluster models to every
    // cohort member each round (its dominant communication cost —
    // billed as |cohort|*C downlink messages, one wave per cluster
    // model so each member's C serial downloads count toward round
    // latency). Members select on what they decode.
    std::vector<std::vector<std::shared_ptr<const ModelParameters>>>
        waves;  // [c][cohort position]
    waves.reserve(C);
    for (std::size_t c = 0; c < C; ++c) {
      std::vector<const ModelParameters*> wave(cohort.size(),
                                               &cluster_models[c]);
      waves.push_back(sim.channel().broadcast(wave, cohort));
    }

    // 2) Cluster selection: lowest training loss among the C models,
    // for this round's cohort; absent clients keep their assignment.
    parallel_for(cohort.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double best_loss = 1e300;
        int best_c = 0;
        for (std::size_t c = 0; c < C; ++c) {
          const double loss = clients[cohort[i]].evaluate_train_loss(
              *waves[c][i], selection_batches_);
          if (loss < best_loss) {
            best_loss = loss;
            best_c = static_cast<int>(c);
          }
        }
        assignment_[cohort[i]] = best_c;
      }
    });

    // 3) Local training of the chosen cluster model — already on the
    // client from the selection broadcast, so no second download — and
    // per-cluster aggregation through the configured rule (a cluster
    // nobody chose keeps its model).
    std::vector<std::size_t> cluster_of;
    std::vector<std::shared_ptr<const ModelParameters>> chosen;
    cluster_of.reserve(cohort.size());
    chosen.reserve(cohort.size());
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      cluster_of.push_back(static_cast<std::size_t>(assignment_[cohort[i]]));
      chosen.push_back(waves[cluster_of.back()][i]);
    }
    cluster_round(clients, cohort, chosen, cluster_of, cluster_models,
                  weights, fold, opts.client, sim);

    if (opts.on_round) {
      std::vector<ModelParameters> snapshot;
      for (std::size_t k = 0; k < clients.size(); ++k) {
        snapshot.push_back(
            cluster_models[static_cast<std::size_t>(assignment_[k])]);
      }
      opts.on_round(r, snapshot);
    }
  }

  std::vector<ModelParameters> finals;
  finals.reserve(clients.size());
  for (std::size_t k = 0; k < clients.size(); ++k) {
    finals.push_back(cluster_models[static_cast<std::size_t>(assignment_[k])]);
  }
  return finals;
}

}  // namespace fleda
