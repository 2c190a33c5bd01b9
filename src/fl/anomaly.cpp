#include "fl/anomaly.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace fleda {

namespace {

void validate(const AnomalyConfig& config) {
  if (!(config.norm_factor > 1.0) || !std::isfinite(config.norm_factor)) {
    throw std::invalid_argument(
        "AnomalyConfig: norm_factor must be finite and > 1 (a factor at "
        "or below 1 flags the cohort's own median)");
  }
  if (!(config.cosine_threshold >= -1.0) || !(config.cosine_threshold < 1.0)) {
    throw std::invalid_argument(
        "AnomalyConfig: cosine_threshold must be in [-1, 1)");
  }
  if (!(config.baseline_decay >= 0.0) || !(config.baseline_decay < 1.0)) {
    throw std::invalid_argument(
        "AnomalyConfig: baseline_decay must be in [0, 1)");
  }
  if (config.min_cohort < 2) {
    throw std::invalid_argument("AnomalyConfig: min_cohort must be >= 2");
  }
}

void validate(const ReputationConfig& config) {
  if (!(config.flag_penalty > 0.0) || !(config.flag_penalty < 1.0)) {
    throw std::invalid_argument(
        "ReputationConfig: flag_penalty must be in (0, 1)");
  }
  if (!(config.clean_reward >= 0.0) || !(config.clean_reward <= 1.0)) {
    throw std::invalid_argument(
        "ReputationConfig: clean_reward must be in [0, 1]");
  }
  if (!(config.floor > 0.0) || !(config.floor <= 1.0)) {
    throw std::invalid_argument(
        "ReputationConfig: floor must be in (0, 1] (a zero floor silences "
        "a flagged client forever)");
  }
}

}  // namespace

AnomalyDetector::AnomalyDetector(AnomalyConfig config) : config_(config) {
  validate(config_);
}

std::uint64_t AnomalyDetector::scored(std::size_t client) const {
  return client < scored_.size() ? scored_[client] : 0;
}

std::uint64_t AnomalyDetector::flagged(std::size_t client) const {
  return client < flagged_.size() ? flagged_[client] : 0;
}

std::vector<UpdateVerdict> AnomalyDetector::score_cohort(
    const std::vector<std::size_t>& clients,
    const std::vector<const ModelParameters*>& deltas) {
  if (clients.size() != deltas.size()) {
    throw std::invalid_argument("AnomalyDetector: clients/deltas mismatch");
  }
  const std::size_t n = clients.size();
  std::vector<UpdateVerdict> verdicts(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (deltas[i] == nullptr) {
      throw std::invalid_argument("AnomalyDetector: null delta");
    }
    verdicts[i].client = clients[i];
  }
  if (n < static_cast<std::size_t>(config_.min_cohort)) return verdicts;

  // Pass 1 — norms. A non-finite delta is anomalous by definition (the
  // aggregation guard will reject it loudly; the detector's job is to
  // pin it on the sender's record too). The per-update norms run on the
  // pool; the median is then taken serially.
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      verdicts[i].norm = std::sqrt(deltas[i]->squared_l2_norm());
    }
  });
  std::vector<double> finite_norms;
  finite_norms.reserve(n);
  for (const UpdateVerdict& v : verdicts) {
    if (std::isfinite(v.norm)) finite_norms.push_back(v.norm);
  }
  if (finite_norms.empty()) {
    for (UpdateVerdict& v : verdicts) v.flagged = true;
  } else {
    const std::size_t mid = finite_norms.size() / 2;
    std::nth_element(finite_norms.begin(),
                     finite_norms.begin() + static_cast<std::ptrdiff_t>(mid),
                     finite_norms.end());
    const double median = finite_norms[mid];
    // The norm reference: the smaller of this cohort's median and the
    // cross-round baseline, so a cohort that happens to be majority
    // attackers cannot launder its inflated median past the detector.
    const double reference =
        has_baseline_ ? std::min(median, baseline_norm_) : median;
    const double limit = config_.norm_factor * std::max(reference, 1e-12);
    for (UpdateVerdict& v : verdicts) {
      v.flagged = !std::isfinite(v.norm) || v.norm > limit;
    }
    baseline_norm_ = has_baseline_
                         ? config_.baseline_decay * baseline_norm_ +
                               (1.0 - config_.baseline_decay) * median
                         : median;
    has_baseline_ = true;

    // Pass 2 — consensus direction: the mean of the norm-clean deltas.
    // With the inflated updates excluded the mean is honest-dominated
    // for any sub-majority attack, so a reversed delta scores a
    // strongly negative cosine even at an honest-looking norm.
    ModelParameters consensus;
    for (std::size_t i = 0; i < n; ++i) {
      if (verdicts[i].flagged) continue;
      if (consensus.empty()) {
        consensus = *deltas[i];
      } else if (consensus.structurally_equal(*deltas[i])) {
        consensus.add_scaled(*deltas[i], 1.0);
      }
    }
    const double consensus_norm_sq =
        consensus.empty() ? 0.0 : consensus.squared_l2_norm();
    if (consensus_norm_sq > 1e-24 && std::isfinite(consensus_norm_sq)) {
      // Each update's cosine touches only its own verdict.
      parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          UpdateVerdict& v = verdicts[i];
          if (!std::isfinite(v.norm) || v.norm <= 1e-12) continue;
          if (!consensus.structurally_equal(*deltas[i])) continue;
          const double cos = deltas[i]->dot(consensus) /
                             (v.norm * std::sqrt(consensus_norm_sq));
          if (std::isfinite(cos)) {
            v.cosine = cos;
            if (cos < config_.cosine_threshold) v.flagged = true;
          }
        }
      });
    }
  }

  for (const UpdateVerdict& v : verdicts) {
    const std::size_t k = v.client;
    if (k >= scored_.size()) {
      scored_.resize(k + 1, 0);
      flagged_.resize(k + 1, 0);
    }
    ++scored_[k];
    ++total_scored_;
    if (v.flagged) {
      ++flagged_[k];
      ++total_flagged_;
    }
  }
  return verdicts;
}

ReputationBook::ReputationBook(ReputationConfig config) : config_(config) {
  validate(config_);
}

void ReputationBook::observe(std::size_t client, bool flagged) {
  if (client >= weights_.size()) {
    weights_.resize(client + 1, 1.0);
    flags_.resize(client + 1, 0);
  }
  double& w = weights_[client];
  if (flagged) {
    w = std::max(config_.floor, w * config_.flag_penalty);
    ++flags_[client];
  } else {
    w = std::min(1.0, w + config_.clean_reward * (1.0 - w));
  }
}

double ReputationBook::weight(std::size_t client) const {
  return client < weights_.size() ? weights_[client] : 1.0;
}

std::uint64_t ReputationBook::flags(std::size_t client) const {
  return client < flags_.size() ? flags_[client] : 0;
}

}  // namespace fleda
