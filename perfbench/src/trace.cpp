#include "trace.hpp"

#include <stdexcept>

#include "obs/profiler.hpp"

namespace perfbench {

PhaseSnapshot snapshot_phases() {
  PhaseSnapshot snap;
  if (!fleda::Profiler::enabled()) return snap;
  for (const fleda::PhaseReport& p : fleda::Profiler::report().phases) {
    snap[p.name] = {p.count, p.total_ms, p.self_ms};
  }
  return snap;
}

PhaseSnapshot phase_delta(const PhaseSnapshot& before,
                          const PhaseSnapshot& after) {
  PhaseSnapshot delta;
  for (const auto& [name, a] : after) {
    PhaseStat d = a;
    const auto it = before.find(name);
    if (it != before.end()) {
      d.count -= it->second.count;
      d.total_ms -= it->second.total_ms;
      d.self_ms -= it->second.self_ms;
    }
    if (d.count > 0) delta[name] = d;
  }
  return delta;
}

void Tracer::set_enabled(bool enabled) {
  if (!open_.empty()) {
    throw std::logic_error("Tracer: cannot toggle while spans are open");
  }
  enabled_ = enabled;
  fleda::Profiler::set_enabled(enabled);
}

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = open_.empty() ? -1 : open_.back();
  open_phases_.push_back(snapshot_phases());
  rec.start_ns = fleda::StopWatch::now_ns();
  spans_.push_back(std::move(rec));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer: spans must close innermost first");
  }
  SpanRecord& rec = spans_[static_cast<std::size_t>(id)];
  rec.end_ns = fleda::StopWatch::now_ns();
  rec.phases = phase_delta(open_phases_.back(), snapshot_phases());
  open_.pop_back();
  open_phases_.pop_back();
}

}  // namespace perfbench
