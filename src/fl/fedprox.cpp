#include "fl/fedprox.hpp"

namespace fleda {

std::vector<ModelParameters> FedProx::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& participation) {
  Rng rng(opts.seed);
  ModelParameters global = initial_model_parameters(factory, rng);

  const std::vector<double> weights = Server::client_weights(clients);
  const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);
  const RoundFold fold = round_fold(opts, *rule, sim);
  for (int r = 0; r < opts.rounds; ++r) {
    const std::vector<std::size_t> cohort =
        select_cohort(participation, r, clients.size(), opts, sim);
    global =
        global_round(clients, cohort, global, weights, fold, opts.client, sim);
    if (opts.on_round) {
      opts.on_round(r, std::vector<ModelParameters>(clients.size(), global));
    }
  }
  global_ = global;
  return std::vector<ModelParameters>(clients.size(), global);
}

}  // namespace fleda
