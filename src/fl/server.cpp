#include "fl/server.hpp"

#include <stdexcept>

namespace fleda {

std::vector<double> Server::client_weights(const std::vector<Client>& clients) {
  std::vector<double> weights;
  weights.reserve(clients.size());
  for (const Client& c : clients) {
    weights.push_back(static_cast<double>(c.num_train()));
  }
  return weights;
}

std::vector<double> Server::cohort_weights(
    const std::vector<double>& weights,
    const std::vector<std::size_t>& cohort) {
  std::vector<double> out;
  out.reserve(cohort.size());
  for (std::size_t k : cohort) out.push_back(weights.at(k));
  return out;
}

ModelParameters Server::aggregate(const AggregationRule& rule,
                                  const ModelParameters& current,
                                  const std::vector<ModelParameters>& updates,
                                  const std::vector<double>& weights,
                                  const std::vector<std::size_t>& cohort) {
  if (updates.size() != weights.size()) {
    throw std::invalid_argument(
        "Server::aggregate: " + std::to_string(updates.size()) +
        " updates but " + std::to_string(weights.size()) + " weights");
  }
  if (!cohort.empty() && cohort.size() != updates.size()) {
    throw std::invalid_argument(
        "Server::aggregate: " + std::to_string(updates.size()) +
        " updates but " + std::to_string(cohort.size()) + " cohort indices");
  }
  std::vector<AggregationInput> inputs;
  inputs.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const int client = cohort.empty() ? -1 : static_cast<int>(cohort[i]);
    inputs.push_back({&updates[i], weights[i], 0, client});
  }
  return rule.aggregate(current, inputs);
}

}  // namespace fleda
