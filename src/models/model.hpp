// Common interface for routability estimators. A model maps an
// [N, c, H, W] placement feature tensor to an [N, 1, H, W] hotspot
// score map (raw scores; the paper's Eq. 1 regresses them onto the
// binary DRC map with MSE, and ROC AUC is threshold-free).
//
// Models are Modules, so FL code can flatten parameters()/buffers()
// uniformly. New instances with identical architecture are created
// through the registry (models/registry.hpp); FL algorithms copy
// parameter *values* between instances rather than cloning objects.
#pragma once

#include <atomic>
#include <string>

#include "nn/module.hpp"

namespace fleda {

class RoutabilityModel : public Module {
 public:
  RoutabilityModel() { count_construction(); }
  RoutabilityModel(const RoutabilityModel&) { count_construction(); }
  RoutabilityModel& operator=(const RoutabilityModel&) = default;
  ~RoutabilityModel() override { live_.fetch_sub(1, std::memory_order_relaxed); }

  // Stable identifier ("flnet", "routenet", "pros").
  virtual std::string model_name() const = 0;

  // Number of input feature channels the model was built for.
  virtual std::int64_t in_channels() const = 0;

  // Module::backward, except that it returns no input gradient (an
  // empty tensor): nothing trains the input features, so every model
  // builds its first conv with Conv2dOptions::input_grad = false and
  // skips that layer's data-gradient GEMM and col2im. Parameter
  // gradients are exactly those of a full backward.
  Tensor backward(const Tensor& grad_output) override = 0;

  // Process-wide instance accounting. The scratch-model pool keeps a
  // thousand-client federation at O(threads) live models; these
  // counters are how tests and benches assert that invariant.
  static std::int64_t live_instances() {
    return live_.load(std::memory_order_relaxed);
  }
  static std::int64_t peak_instances() {
    return peak_.load(std::memory_order_relaxed);
  }
  // Restarts the high-water mark from the current live count (e.g.
  // after a setup phase whose transient instances should not count
  // against a training run's O(threads) budget).
  static void reset_peak_instances() {
    peak_.store(live_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

 private:
  static void count_construction() {
    const std::int64_t now = live_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t seen = peak_.load(std::memory_order_relaxed);
    while (seen < now &&
           !peak_.compare_exchange_weak(seen, now, std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }

  inline static std::atomic<std::int64_t> live_{0};
  inline static std::atomic<std::int64_t> peak_{0};
};

using RoutabilityModelPtr = std::unique_ptr<RoutabilityModel>;

}  // namespace fleda
