// Benchmark-side tracing: wall-clock spans recorded around the
// benchmark's own calls into the library's modules, plus snapshots of
// the library profiler's phases (obs/profiler.hpp) at every span
// boundary, so each span also knows how much phase time ran while it
// was open. Spans live in memory and are written out with the result;
// self-time, coverage and the per-layer figures are reduced from them
// by perfbench/benchlib.py.
//
// Everything here runs on the benchmark's main thread. The library's
// worker threads only show up through the profiler phases, whose
// totals are quiescent-consistent at span boundaries because every
// library call the benchmark spans has joined its parallel work by the
// time it returns.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// One profiler phase, summed over every thread that ran it.
struct PhaseStat {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // excludes nested phases (no double counting)
};
using PhaseSnapshot = std::map<std::string, PhaseStat>;

// The library profiler's current totals (empty while it is disabled).
PhaseSnapshot snapshot_phases();
// after - before, per phase; phases that did not advance are dropped.
PhaseSnapshot phase_delta(const PhaseSnapshot& before,
                          const PhaseSnapshot& after);

struct SpanRecord {
  std::string name;
  int parent = -1;  // index into Tracer::spans(), -1 for a root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  PhaseSnapshot phases;  // profiler phase time while the span was open
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  // Also switches the library profiler, so one flag decides whether a
  // repetition is traced.
  void set_enabled(bool enabled);

  // Returns the span's index, or -1 while disabled.
  int begin(std::string name);
  void end(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::vector<PhaseSnapshot> open_phases_;
};

// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~Span() { tracer_.end(id_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
