// The benchmark's two workloads, driven through the library's public
// API. Each one derives every generated input from the run's seed and
// sets every configuration field itself, so no environment variable or
// library default outside the benchmark can change what it runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

// One repetition of a workload's measured unit of work.
struct RepRecord {
  bool traced = false;
  double wall_s = 0.0;  // end of setup -> evaluated results
  // End-to-end outputs.
  double auc = 0.0;
  double wire_bytes = 0.0;
  double sim_time_s = 0.0;
  // Counted work at the layer boundaries (see benchlib.py for how each
  // becomes a per-layer metric).
  std::map<std::string, double> counters;
  PhaseSnapshot phases;  // traced repetitions only
  // Hash of the repetition's results; repetitions of one run must agree.
  std::string fingerprint;
  std::uint64_t attempted = 0;  // client updates + 1 for the run itself
  std::vector<std::string> failures;
  double rss_mb = 0.0;  // VmRSS once the results are evaluated
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the workload's state anew, replacing any previous
  // one, so repeated calls time the whole set-up.
  virtual void setup(Tracer& tracer) = 0;
  // One short untimed pass over the repetition's code paths (scratch
  // models, kernel plans, the allocator's heap), so the first measured
  // repetition is not also the process's first.
  virtual void warmup() = 0;
  virtual RepRecord rep(Tracer& tracer) = 0;
  // Per-layer probes that time library calls from outside, at the
  // workload's own shapes; run once, after the repetitions, in traced
  // runs only.
  virtual void probes(Tracer& tracer) = 0;
};

// Names: paper_smoke, fleet_1k_robust. Returns null
// for an unknown name. `work_dir` is an existing directory the workload
// may write temporary files into.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

// A stream of the run seed, so every input draws from its own stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// /proc/self/status fields in MB (-1 where unavailable).
double vm_rss_mb();
double vm_hwm_mb();

}  // namespace perfbench
