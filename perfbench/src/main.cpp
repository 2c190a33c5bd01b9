// perfbench: one run of one workload. Sets the workload up several
// times, warms it up once untimed, then repeats its measured unit of
// work for --seconds (at least twice), sets it up several times more,
// and prints one JSON line of raw measurements (per-set-up times,
// per-repetition results and output checks, spans and profiler phases)
// for perfbench/run.py to reduce into the benchmark's metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <existing dir>
//
// With --trace 1 the repetitions alternate untraced and traced (the
// bench's spans plus the library profiler), so one run yields both the
// per-layer figures and the tracing overhead; the probes run last.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "models/model.hpp"
#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && have_seed &&
         have_seconds && have_trace && !args.work_dir.empty();
}

// Minimal JSON writer: every value and key places its own separator.
class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    quote(k);
    out_ << ':';
    first_ = true;  // the value that follows takes no separator
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    quote(s);
    return *this;
  }
  Json& num(double v) {
    sep();
    if (!std::isfinite(v)) {
      out_ << "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ << c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    first_ = false;
    return *this;
  }
  std::string text() const { return out_.str(); }

 private:
  void sep() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  void quote(const std::string& s) {
    out_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
  }
  std::ostringstream out_;
  bool first_ = true;
};

void write_phases(Json& j, const PhaseSnapshot& phases) {
  j.open('{');
  for (const auto& [name, p] : phases) {
    j.key(name).open('{');
    j.key("count").num(static_cast<double>(p.count));
    j.key("total_ms").num(p.total_ms);
    j.key("self_ms").num(p.self_ms);
    j.close('}');
  }
  j.close('}');
}

void write_strings(Json& j, const std::vector<std::string>& v) {
  j.open('[');
  for (const std::string& s : v) j.str(s);
  j.close(']');
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.work_dir);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Tracer tracer;
  tracer.set_enabled(args.trace);

  // Set-up, repeated in two batches, one before the repetitions and
  // one after them: each at least three times and for at least 1.5 s,
  // so the median is steady even when one set-up takes milliseconds and
  // the first few pay for a cold heap. One thread's speed on a shared
  // host drifts by tens of percent within seconds, so set-ups timed in
  // a single burst share one speed; two bursts half a minute apart
  // average two.
  std::vector<double> setup_s;
  const auto setup_batch = [&] {
    constexpr std::size_t kMinSetups = 3;
    constexpr std::size_t kMaxSetups = 125;
    constexpr double kMinSeconds = 1.5;
    fleda::StopWatch batch;
    for (std::size_t n = 0; n < kMinSetups ||
                            (batch.seconds() < kMinSeconds && n < kMaxSetups);
         ++n) {
      Span s(tracer, "setup");
      fleda::StopWatch sw;
      workload->setup(tracer);
      setup_s.push_back(sw.seconds());
    }
  };
  setup_batch();
  const double rss_setup_mb = vm_rss_mb();

  std::vector<std::string> failures;
  tracer.set_enabled(false);
  try {
    workload->warmup();
  } catch (const std::exception& e) {
    failures.push_back(std::string("warm-up: ") + e.what());
  }

  // Repetitions: at least two, so every run has a median of several
  // and a fingerprint to compare, and more while the next one, at the
  // mean pace so far, still ends within --seconds. A traced run
  // alternates untraced and traced ones to price the tracing.
  std::vector<RepRecord> reps;
  constexpr int kMinReps = 2;
  fleda::StopWatch measure;
  for (int i = 0;
       i < kMinReps || measure.seconds() * (i + 1) / i <= args.seconds; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    tracer.set_enabled(traced);
    if (traced) fleda::Profiler::reset();
    fleda::RoutabilityModel::reset_peak_instances();
    RepRecord rec = workload->rep(tracer);
    rec.counters["models.peak_instances"] =
        static_cast<double>(fleda::RoutabilityModel::peak_instances());
    rec.traced = traced;
    if (traced) {
      // The nominal step count samples_per_s rests on must be what the
      // optimizer really ran.
      rec.phases = snapshot_phases();
      const auto it = rec.phases.find(fleda::phase::kTrainOptimizer);
      const double steps = it == rec.phases.end() ? 0.0 : it->second.count;
      const double expected = rec.counters["nn.expected_steps"];
      if (steps != expected) {
        rec.failures.push_back("optimizer ran " + std::to_string(steps) +
                               " steps, expected " + std::to_string(expected));
      }
    }
    reps.push_back(std::move(rec));
  }
  // The workload's own peak, before the set-ups, checks and probes
  // below. The second set-up batch replaces the state the repetitions
  // used with an identical one.
  const double peak_rss_mb = vm_hwm_mb();
  tracer.set_enabled(args.trace);
  setup_batch();
  tracer.set_enabled(false);
  if (args.trace) {
    tracer.set_enabled(true);
    workload->probes(tracer);
  }

  for (const RepRecord& r : reps) {
    if (!r.fingerprint.empty() && r.fingerprint != reps.front().fingerprint) {
      failures.push_back("repetitions disagree: fingerprint " + r.fingerprint +
                         " vs " + reps.front().fingerprint);
      break;
    }
  }

  const std::size_t pool = fleda::ThreadPool::global().size();
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  Json j;
  j.open('{');
  j.key("workload").str(args.workload);
  j.key("seed").num(static_cast<double>(args.seed));
  j.key("trace").num(args.trace ? 1 : 0);
  j.key("pool_threads").num(static_cast<double>(pool));
  // Threads that can run pool work at once: the workers plus the
  // calling thread, bounded by the hardware.
  j.key("parallel_width").num(static_cast<double>(std::min(pool + 1, hw)));
  j.key("setup_s").open('[');
  for (double s : setup_s) j.num(s);
  j.close(']');
  j.key("rss_setup_mb").num(rss_setup_mb);
  j.key("peak_rss_mb").num(peak_rss_mb);
  j.key("failures");
  write_strings(j, failures);
  j.key("reps").open('[');
  for (const RepRecord& r : reps) {
    j.open('{');
    j.key("traced").boolean(r.traced);
    j.key("wall_s").num(r.wall_s);
    j.key("auc").num(r.auc);
    j.key("wire_bytes").num(r.wire_bytes);
    j.key("sim_time_s").num(r.sim_time_s);
    j.key("rss_mb").num(r.rss_mb);
    j.key("fingerprint").str(r.fingerprint);
    j.key("attempted").num(static_cast<double>(r.attempted));
    j.key("failures");
    write_strings(j, r.failures);
    j.key("counters").open('{');
    for (const auto& [name, v] : r.counters) j.key(name).num(v);
    j.close('}');
    j.key("phases");
    write_phases(j, r.phases);
    j.close('}');
  }
  j.close(']');
  j.key("spans").open('[');
  for (const SpanRecord& s : tracer.spans()) {
    j.open('{');
    j.key("name").str(s.name);
    j.key("parent").num(s.parent);
    j.key("start_ns").num(static_cast<double>(s.start_ns));
    j.key("end_ns").num(static_cast<double>(s.end_ns));
    j.key("phases");
    write_phases(j, s.phases);
    j.close('}');
  }
  j.close(']');
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
