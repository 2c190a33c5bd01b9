// Server (the "developer" in the paper): the only party besides the
// clients, which never sees data — it only aggregates ModelParameters
// weighted by each client's sample count (n_k / n), as in
// W^{r+1} = sum_k (n_k / n) w_k^r.
//
// The actual averaging math lives in fl/aggregation.hpp
// (WeightedAverage); these statics are the convenience facade the
// round loops use, now cohort-aware: under a ParticipationPolicy an
// algorithm aggregates `cohort_weights`-weighted updates from the
// sampled members only.
#pragma once

#include <vector>

#include "fl/aggregation.hpp"
#include "fl/client.hpp"
#include "fl/parameters.hpp"

namespace fleda {

class Server {
 public:
  // Sample-count weights n_k for a set of clients.
  static std::vector<double> client_weights(const std::vector<Client>& clients);

  // n_k for the cohort's members only, cohort-indexed (pairs with the
  // cohort-indexed updates cohort_local_updates returns).
  static std::vector<double> cohort_weights(
      const std::vector<double>& weights,
      const std::vector<std::size_t>& cohort);

  // Rule-threaded form: aggregates the cohort-indexed updates under
  // `rule`, with `current` as the model being replaced (the delta
  // reference for clipping rules; plain averages ignore it). `cohort`
  // carries the true federation-level client indices so validation
  // errors name the poisoning client — pass an empty vector when the
  // caller has no cohort identity (errors then name positions).
  static ModelParameters aggregate(const AggregationRule& rule,
                                   const ModelParameters& current,
                                   const std::vector<ModelParameters>& updates,
                                   const std::vector<double>& weights,
                                   const std::vector<std::size_t>& cohort);

};

}  // namespace fleda
