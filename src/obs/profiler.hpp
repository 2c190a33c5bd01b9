// Scoped profiler: the always-on, low-overhead time breakdown every
// bench and telemetry consumer reads. ProfileScope is a thread-local
// RAII span keyed by a *static* phase-name string (pointer identity on
// the hot path — pass the phase:: constants or another static string,
// never a temporary). Each thread owns a fixed-size slab of phase
// slots, so recording a span is lock-free: one linear-probe lookup in
// thread-local storage plus two steady-clock reads. Slabs register
// themselves once (cold path, mutexed) and Profiler::report() merges
// them into per-phase count / total / min / max / self-time.
//
// Nesting is tracked through a thread-local scope stack: a child span's
// elapsed time is charged to its parent's child-time accumulator, so
// self = total - child is exact (same integer nanoseconds on both
// sides), with no double counting across levels.
//
// Profiling is enabled by default; FLEDA_PROFILE=0 in the environment
// (or Profiler::set_enabled(false)) disables it, at which point
// ProfileScope construction is a single relaxed atomic load — no clock
// reads, no allocation, nothing written.
//
// StopWatch is the one steady-clock wrapper in the codebase; the
// profiler spans and the historical util/timer.hpp Timer (now a thin
// alias) both read it, so bench wall-clock prints and profiler phase
// totals can never disagree about what a second is.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fleda {

// Monotonic wall-clock wrapper (steady_clock, nanosecond ticks).
class StopWatch {
 public:
  StopWatch() : start_(now_ns()) {}

  void reset() { start_ = now_ns(); }

  double seconds() const {
    return static_cast<double>(now_ns() - start_) * 1e-9;
  }

  double millis() const { return seconds() * 1e3; }

  // Nanoseconds since an arbitrary (per-process) epoch.
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::int64_t start_;
};

// Static phase names for the instrumented hot paths. ProfileScope keys
// by pointer, so call sites must use these constants (or their own
// static-storage strings) — two spellings of the same text in
// different translation units merge at report time by name.
namespace phase {
inline constexpr const char* kTrainForward = "train/forward";
inline constexpr const char* kTrainBackward = "train/backward";
inline constexpr const char* kTrainOptimizer = "train/optimizer";
inline constexpr const char* kCodecEncode = "codec/encode";
inline constexpr const char* kCodecDecode = "codec/decode";
inline constexpr const char* kAggregate = "agg/aggregate";
inline constexpr const char* kEventDispatch = "sim/dispatch";
inline constexpr const char* kPoolAcquire = "pool/acquire";
inline constexpr const char* kKernelPack = "kernel/pack";
inline constexpr const char* kBenchTotal = "bench/total";
}  // namespace phase

// One merged phase of a ProfileReport.
struct PhaseReport {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // total minus time spent in nested scopes
  double min_ms = 0.0;
  double max_ms = 0.0;
};

struct ProfileReport {
  std::vector<PhaseReport> phases;  // sorted by name

  // The phase named `name`, or nullptr when it never ran.
  const PhaseReport* find(std::string_view name) const;
  // Convenience: total seconds of `name` (0.0 when it never ran).
  double total_seconds(std::string_view name) const;

  // {"phases":[{"name":...,"count":...,"total_ms":...,...},...]} with
  // fixed field order and %.3f millisecond formatting — stable enough
  // to embed in the BENCH_*.json trajectory files.
  std::string to_json() const;
};

class Profiler {
 public:
  // Default: enabled unless the environment says FLEDA_PROFILE=0.
  static bool enabled();
  static void set_enabled(bool enabled);

  // Merges every thread's slab into one per-phase report. Safe to call
  // at any time, but the totals are only quiescent-consistent — call it
  // between phases, not while workers are mid-span, for exact numbers.
  static ProfileReport report();

  // Zeroes every slab. Call only while no ProfileScope is live.
  static void reset();
};

// RAII span. `name` MUST point at static-storage characters (the
// phase:: constants); the profiler stores the pointer, not a copy.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name);
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  // Elapsed seconds since construction; 0.0 while profiling is
  // disabled (no clock was read). Benches that need the number
  // unconditionally keep a StopWatch next to the scope.
  double seconds() const;

 private:
  void* slot_ = nullptr;  // internal PhaseSlot*, null when disabled
  std::int64_t start_ = 0;
  std::int64_t child_ns_ = 0;  // filled by nested scopes as they end
  ProfileScope* parent_ = nullptr;
};

}  // namespace fleda
