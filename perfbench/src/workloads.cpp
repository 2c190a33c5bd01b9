#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "core/experiment.hpp"
#include "fl/anomaly.hpp"
#include "fl/fedavg.hpp"
#include "fl/synthetic.hpp"
#include "models/model.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "phys/drc.hpp"
#include "phys/features.hpp"
#include "phys/global_router.hpp"
#include "phys/netlist.hpp"
#include "phys/placer.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace fleda;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed).fork(stream).next_u64();
}

namespace {

double proc_status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      mb = std::strtod(line + len + 1, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

// FNV-1a, fed field by field.
class Fingerprint {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void add(const T& v) {
    add_bytes(&v, sizeof(v));
  }
  void add(const std::string& s) { add_bytes(s.data(), s.size()); }
  void add(const ModelParameters& params) {
    for (const ParameterEntry& e : params.entries()) {
      add_bytes(e.value.data(),
                static_cast<std::size_t>(e.value.numel()) * sizeof(float));
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void expect(bool ok, const std::string& what, std::vector<std::string>& failures) {
  if (!ok) failures.push_back(what);
}

// Billing conservation: cumulative totals equal the sum of the
// per-round records, the fp32 baseline is one model per message, and an
// fp32 direction bills exactly that baseline. `cohort` > 0 also pins
// every round's message count to the cohort size, and `rounds` >= 0 the
// number of billed rounds.
void check_billing(const ChannelStats& c, std::uint64_t model_bytes,
                   const CommConfig& comm, std::int64_t cohort, int rounds,
                   const std::string& where, std::vector<std::string>& failures) {
  std::uint64_t up = 0, down = 0, up_msgs = 0, down_msgs = 0;
  bool per_round_ok = true;
  for (const RoundCommStats& r : c.rounds) {
    up += r.uplink_bytes;
    down += r.downlink_bytes;
    up_msgs += r.uplink_messages;
    down_msgs += r.downlink_messages;
    if (comm.uplink == CodecKind::kFp32 &&
        r.uplink_bytes != r.uplink_messages * model_bytes) {
      per_round_ok = false;
    }
    if (comm.downlink == CodecKind::kFp32 &&
        r.downlink_bytes != r.downlink_messages * model_bytes) {
      per_round_ok = false;
    }
    if (cohort > 0 && (r.uplink_messages != static_cast<std::uint64_t>(cohort) ||
                       r.downlink_messages != static_cast<std::uint64_t>(cohort))) {
      per_round_ok = false;
    }
  }
  expect(up == c.uplink_bytes && down == c.downlink_bytes &&
             up_msgs == c.uplink_messages && down_msgs == c.downlink_messages,
         where + ": channel totals differ from the sum of per-round totals",
         failures);
  expect(c.raw_uplink_bytes == c.uplink_messages * model_bytes &&
             c.raw_downlink_bytes == c.downlink_messages * model_bytes,
         where + ": fp32 baseline is not one model per message", failures);
  expect(per_round_ok,
         where + ": a round's billing differs from cohort x model bytes",
         failures);
  if (rounds >= 0) {
    expect(c.rounds.size() == static_cast<std::size_t>(rounds),
           where + ": unexpected number of billed rounds", failures);
  }
}

std::uint64_t guard_trips(const std::vector<RoundTelemetry>& rounds) {
  std::uint64_t n = 0;
  for (const RoundTelemetry& r : rounds) n += r.guard_trips;
  return n;
}

std::uint64_t updates_aggregated(const std::vector<RoundTelemetry>& rounds) {
  std::uint64_t n = 0;
  for (const RoundTelemetry& r : rounds) {
    n += static_cast<std::uint64_t>(r.cohort_size);
  }
  return n;
}

void add_comm_counters(const ChannelStats& c, std::map<std::string, double>& out) {
  out["comm.up_bytes"] += static_cast<double>(c.uplink_bytes);
  out["comm.down_bytes"] += static_cast<double>(c.downlink_bytes);
  out["comm.raw_bytes"] +=
      static_cast<double>(c.raw_uplink_bytes + c.raw_downlink_bytes);
  out["comm.messages"] +=
      static_cast<double>(c.uplink_messages + c.downlink_messages);
  out["fl.deployments"] += static_cast<double>(c.downlink_messages);
}

// FLNet forward and backward timed from outside, at the workload's
// batch, channel count and grid.
void probe_model(Tracer& tracer, std::int64_t channels, std::int64_t batch,
                 std::int64_t grid, std::uint64_t seed) {
  constexpr int kIterations = 20;
  Rng rng(seed);
  RoutabilityModelPtr model =
      make_model_factory(ModelKind::kFLNet, channels)(rng);
  Tensor x(Shape::of(batch, channels, grid, grid));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform());
  }
  for (int it = 0; it < kIterations; ++it) {
    model->zero_grad();
    Tensor y;
    {
      Span s(tracer, "models.flnet_fwd");
      y = model->forward(x, /*training=*/true);
    }
    Tensor grad(y.shape(), 1e-3f);
    Span s(tracer, "models.flnet_bwd");
    model->backward(grad);
  }
}

// Every field is set here, defaults included, so the workloads cannot
// move when a library default does.

// The library's stock link rates; only the codecs differ by workload.
CommConfig comm_config(CodecKind uplink, CodecKind downlink,
                       bool error_feedback) {
  CommConfig c;
  c.uplink = uplink;
  c.downlink = downlink;
  c.topk_fraction = 0.05;
  c.uplink_bytes_per_sec = 12.5e6;
  c.downlink_bytes_per_sec = 62.5e6;
  c.per_message_latency_s = 0.05;
  c.error_feedback = error_feedback;
  return c;
}

// Dense aggregation, the library's default (streaming is opt-in).
AggregationConfig aggregation_config(std::string rule, int krum_f,
                                     int krum_m) {
  AggregationConfig a;
  a.rule = std::move(rule);
  a.trim_fraction = 0.1;
  a.clip_norm = 10.0;
  a.krum_f = krum_f;
  a.krum_m = krum_m;
  a.staleness.discount = StalenessDiscount::kPolynomial;
  a.staleness.poly_exponent = 1.0;
  a.staleness.constant_factor = 0.3;
  a.server_mix = 0.5;
  a.streaming = false;
  a.shards = 0;
  a.sketch_bins = 32;
  a.sketch_span = 0.25;
  return a;
}

AnomalyConfig anomaly_config(bool enabled) {
  AnomalyConfig a;
  a.enabled = enabled;
  a.norm_factor = 3.0;
  a.cosine_threshold = -0.2;
  a.baseline_decay = 0.5;
  a.min_cohort = 4;
  return a;
}

// ---------------------------------------------------------------- paper

// The eight Table-3 rows, in the paper's order.
const std::vector<std::string>& paper_rows() {
  static const std::vector<std::string> rows = {
      "local", "central", "fedprox", "fedprox_lg", "ifca",
      "fedprox_finetune", "assigned_clustering", "alpha_sync"};
  return rows;
}

// Lowest acceptable FedProx + Fine-tuning average AUC. Seeds 1-5 gave
// 0.68-0.72; an untrained FLNet scores about 0.5.
constexpr double kPaperAucFloor = 0.6;

ExperimentConfig paper_config(std::uint64_t seed, const std::string& cache_dir) {
  ExperimentConfig cfg;
  cfg.model = ModelKind::kFLNet;
  // The library's "smoke" RunScale preset.
  cfg.scale.name = "smoke";
  cfg.scale.grid = 16;
  cfg.scale.rounds = 3;
  cfg.scale.steps_per_round = 4;
  cfg.scale.finetune_steps = 20;
  cfg.scale.batch_size = 4;
  cfg.scale.placement_fraction = 0.03;
  cfg.hparams.learning_rate = 2e-4;
  cfg.hparams.l2_regularization = 1e-5;
  cfg.hparams.fedprox_mu = 1e-4;
  cfg.hparams.alpha_portion = 0.5;
  cfg.hparams.num_clusters = 4;
  cfg.hparams.num_clients = 9;
  cfg.data_seed = derive_seed(seed, 1);
  cfg.train_seed = derive_seed(seed, 2);
  cfg.comm = comm_config(CodecKind::kFp32, CodecKind::kFp32, false);
  // Seeded device and link diversity across the nine organisations,
  // kept mild so the virtual clock stays comparable across seeds. Full
  // participation makes every row wait for all nine clients, so the
  // profiles move only the virtual clock, never the trained models.
  cfg.sim = SimConfig::heterogeneous(
      static_cast<std::size_t>(cfg.hparams.num_clients), derive_seed(seed, 4),
      1.5);
  cfg.sim.step_time_s = 0.02;
  cfg.participation.kind = ParticipationKind::kFull;
  cfg.participation.sample_size = 0;
  cfg.participation.seed = derive_seed(seed, 3);
  cfg.participation.loss_weighted = false;
  // Empty rule: each method's own default, as in the paper's table.
  cfg.aggregation = aggregation_config("", 1, 0);
  cfg.anomaly = anomaly_config(false);
  cfg.async.buffer_size = 3;
  cfg.async.server_mix = 0.5;
  cfg.async.discount = StalenessDiscount::kPolynomial;
  cfg.async.poly_exponent = 1.0;
  cfg.async.constant_factor = 0.3;
  cfg.async.max_in_flight = 0;
  cfg.async.staleness_gate_age = 0;
  cfg.reset_optimizer = true;
  cfg.cache_dir = cache_dir;
  return cfg;
}

class PaperSmoke : public Workload {
 public:
  PaperSmoke(std::uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {}

  // A fresh, empty dataset cache per set-up, so every set-up generates.
  void setup(Tracer& tracer) override {
    const std::string cache =
        work_dir_ + "/paper_cache_" + std::to_string(setups_++);
    std::filesystem::remove_all(cache);
    std::filesystem::create_directories(cache);
    exp_.reset();
    exp_ = std::make_unique<Experiment>(paper_config(seed_, cache));
    {
      Span s(tracer, "data.generate");
      exp_->prepare_data();
    }
    if (std::filesystem::is_empty(cache)) {
      throw std::runtime_error("paper_smoke: prepare_data wrote no cache");
    }
  }

  // Every row once, on the last set-up's cached data with the shortest
  // schedule: a repetition's shapes (kernel plans, scratch models, the
  // heap) at a fraction of its work, so the first measured repetition
  // pays no first-use cost the later ones do not.
  void warmup() override {
    ExperimentConfig cfg = exp_->config();
    cfg.scale.rounds = 1;
    cfg.scale.steps_per_round = 1;
    cfg.scale.finetune_steps = 1;
    Experiment warm(cfg);
    warm.prepare_data();
    for (const std::string& name : paper_rows()) warm.run_method(name);
  }

  RepRecord rep(Tracer& tracer) override {
    RepRecord rec;
    const ExperimentConfig& cfg = exp_->config();
    std::vector<MethodResult> rows;
    StopWatch wall;
    {
      Span rep_span(tracer, "rep");
      for (const std::string& name : paper_rows()) {
        Span s(tracer, "core.method." + name);
        try {
          rows.push_back(exp_->run_method(name));
        } catch (const std::exception& e) {
          rec.failures.push_back(name + ": " + e.what());
        }
      }
    }
    rec.wall_s = wall.seconds();
    rec.rss_mb = vm_rss_mb();

    const RunScale& s = cfg.scale;
    const int k = cfg.hparams.num_clients;
    // Every row trains R x S steps per client (central: the same total
    // over the pooled data); FedProx + Fine-tuning adds S' per client.
    // The central baseline trains outside Client, so the profiler sees
    // every step but its R x S x K.
    const double row_steps = static_cast<double>(s.rounds) * s.steps_per_round * k;
    const double steps = 8.0 * row_steps + static_cast<double>(k) * s.finetune_steps;
    rec.counters["nn.expected_steps"] = steps - row_steps;
    rec.counters["samples"] = steps * s.batch_size;
    rec.counters["data.samples"] = static_cast<double>(data_samples());

    Rng rng(cfg.train_seed);
    const std::uint64_t model_bytes = raw_wire_bytes(initial_model_parameters(
        make_model_factory(cfg.model, kNumFeatureChannels), rng));
    expect(rows.size() == paper_rows().size(),
           "paper_smoke: " + std::to_string(rows.size()) + " of 8 rows",
           rec.failures);
    Fingerprint fp;
    std::uint64_t updates = 0;
    for (const MethodResult& row : rows) {
      fp.add(row.method);
      for (double a : row.client_auc) fp.add(a);
      fp.add(row.comm.uplink_bytes);
      fp.add(row.comm.downlink_bytes);
      fp.add(row.sim_time_s);
      bool finite = row.client_auc.size() == static_cast<std::size_t>(k);
      for (double a : row.client_auc) finite = finite && std::isfinite(a);
      expect(finite, row.method + ": missing or non-finite client AUC",
             rec.failures);
      check_billing(row.comm, model_bytes, cfg.comm, /*cohort=*/0,
                    /*rounds=*/-1, row.method, rec.failures);
      add_comm_counters(row.comm, rec.counters);
      rec.wire_bytes +=
          static_cast<double>(row.comm.uplink_bytes + row.comm.downlink_bytes);
      rec.sim_time_s += row.sim_time_s;
      rec.counters["sim.events"] += static_cast<double>(row.sim_events);
      rec.counters["fl.updates_aggregated"] +=
          static_cast<double>(updates_aggregated(row.round_telemetry));
      updates += row.comm.uplink_messages;
      const std::uint64_t trips = guard_trips(row.round_telemetry);
      for (std::uint64_t t = 0; t < trips; ++t) {
        rec.failures.push_back(row.method + ": non-finite update rejected");
      }
      if (row.method == display_name("fedprox_finetune")) rec.auc = row.average;
    }
    expect(std::isfinite(rec.auc) && rec.auc >= kPaperAucFloor,
           "paper_smoke: FedProx + Fine-tuning AUC " + std::to_string(rec.auc) +
               " below floor",
           rec.failures);
    rec.fingerprint = fp.hex();
    rec.attempted = updates + 1;
    return rec;
  }

  void probes(Tracer& tracer) override {
    const ExperimentConfig& cfg = exp_->config();
    Span probe(tracer, "probe");
    probe_phys(tracer, cfg);
    probe_model(tracer, kNumFeatureChannels, cfg.scale.batch_size,
                cfg.scale.grid, derive_seed(seed_, 20));
    probe_eval(tracer, cfg);
  }

 private:
  std::int64_t data_samples() const {
    std::int64_t n = 0;
    for (const ClientDataset& d : exp_->data()) n += d.num_train() + d.num_test();
    return n;
  }

  // One design per Table-2 client through the generator's own
  // netlist -> place -> route -> features chain, with its settings.
  void probe_phys(Tracer& tracer, const ExperimentConfig& cfg) const {
    const Technology tech = default_technology();
    for (const ClientSpec& spec : paper_client_specs()) {
      Rng rng(derive_seed(seed_, 100 + static_cast<std::uint64_t>(spec.id)));
      NetlistGenParams params;
      params.profile = profile_for(spec.suite);
      params.grid_w = cfg.scale.grid;
      params.grid_h = cfg.scale.grid;
      params.gcell_cell_capacity = tech.gcell_cell_capacity;
      params.name = "probe" + std::to_string(spec.id);
      NetlistPtr netlist;
      {
        Span s(tracer, "phys.netlist");
        netlist = generate_netlist(params, rng);
      }
      PlacerOptions popts;
      popts.grid_w = cfg.scale.grid;
      popts.grid_h = cfg.scale.grid;
      popts.tech = tech;
      popts.moves_per_cell = 3.0;
      Placement placement;
      {
        Span s(tracer, "phys.place");
        placement = place(netlist, popts, rng);
      }
      RouterOptions ropts;
      ropts.tech = tech;
      ropts.capacity_scale =
          params.profile.capacity_scale * (cfg.scale.grid / 32.0);
      RoutingResult routing;
      {
        Span s(tracer, "phys.route");
        routing = route(placement, ropts, rng);
      }
      DrcOptions dopts;
      dopts.threshold = tech.drc_overflow_ratio;
      Span s(tracer, "phys.features");
      const FeatureSample sample =
          extract_features(placement, routing, tech, dopts);
      if (sample.features.empty()) {
        throw std::runtime_error("phys probe: empty feature map");
      }
    }
  }

  // The per-client AUC evaluation each table row ends with, on the
  // nine clients' test data (run_method's own evaluation is internal).
  void probe_eval(Tracer& tracer, const ExperimentConfig& cfg) const {
    const ModelFactory factory =
        make_model_factory(cfg.model, kNumFeatureChannels);
    auto pool = std::make_shared<ModelPool>(factory);
    Rng rng(cfg.train_seed);
    const ModelParameters params = initial_model_parameters(factory, rng);
    std::vector<Client> clients;
    for (const ClientDataset& d : exp_->data()) {
      clients.emplace_back(d.client_id, &d, pool, rng.fork(d.client_id),
                           ClientInitSchema::kFastInit);
    }
    for (int it = 0; it < 3; ++it) {
      Span s(tracer, "metrics.eval");
      for (Client& c : clients) c.evaluate_test_auc(params);
    }
  }

  std::uint64_t seed_;
  std::string work_dir_;
  int setups_ = 0;
  std::unique_ptr<Experiment> exp_;
};

// ----------------------------------------------------------------- fleet

constexpr std::size_t kFleetClients = 1000;
constexpr int kCohort = 200;
// 20 rounds at lr 1.5e-2 converge on every seed tried (seeds 1-10: AUC
// 0.88-0.94) and keep a repetition at 6-14 s on a 4-vCPU Xeon VM (quiet
// to loaded host), so three fit in 55 s. At lr 1e-2 one seed in five
// still sat at 0.75 after 20 rounds; at 12-16 rounds, or lr 2e-2 and
// up, some seeds stayed below 0.8.
constexpr int kRounds = 20;
constexpr double kLearningRate = 1.5e-2;
// Lowest acceptable mean AUC of the global model over the nine datasets
// (an untrained model scores about 0.5).
constexpr double kAucFloor = 0.8;
constexpr std::size_t kAttackerShare = 10;  // one client in ten
// Synthetic client datasets: the library's default train size, and a
// test set large enough that the AUC of one run is not a coin flip.
constexpr int kTrainSamples = 6;
constexpr int kTestSamples = 24;

class Fleet : public Workload {
 public:
  explicit Fleet(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer) override {
    state_.reset();
    auto st = std::make_unique<State>();
    for (int i = 0; i < 9; ++i) {
      st->data.push_back(make_synthetic_client(
          i + 1, 0.35f + 0.04f * static_cast<float>(i),
          derive_seed(seed_, 10 + static_cast<std::uint64_t>(i)),
          kTrainSamples, kTestSamples));
    }
    st->factory = make_model_factory(ModelKind::kFLNet, 2);
    st->pool = std::make_shared<ModelPool>(st->factory);
    {
      Span s(tracer, "fl.construct");
      build_clients(*st);
    }
    st->sim = SimConfig::heterogeneous(kFleetClients, derive_seed(seed_, 5));
    st->sim.step_time_s = 0.02;
    st->attacker.assign(kFleetClients, 0);
    // Seeded attacker placement: a shuffled tenth of the fleet.
    std::vector<std::size_t> order(kFleetClients);
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    Rng rng(derive_seed(seed_, 6));
    rng.shuffle(order);
    AttackSpec attack;
    attack.kind = AttackKind::kSignFlip;
    attack.scale = 10.0;
    attack.noise_stddev = 1.0;
    attack.seed = derive_seed(seed_, 7);
    for (std::size_t i = 0; i < kFleetClients / kAttackerShare; ++i) {
      st->sim.profiles[order[i]].attack = attack;
      st->attacker[order[i]] = 1;
    }
    state_ = std::move(st);
  }

  // A one-round run: enough to warm every path, including the heap the
  // per-client result vector lands in.
  void warmup() override {
    State& st = *state_;
    fresh_clients(st);
    FLRunOptions opts = run_options(st);
    opts.rounds = 1;
    FedAvg algo;
    algo.run(st.clients, st.factory, opts);
  }

  RepRecord rep(Tracer& tracer) override {
    RepRecord rec;
    State& st = *state_;
    fresh_clients(st);
    ChannelStats comm;
    SimReport report;
    TelemetrySink telemetry;
    AnomalyDetector detector(anomaly_config(true));
    FLRunOptions opts = run_options(st);
    opts.comm_stats = &comm;
    opts.sim_report = &report;
    opts.telemetry = &telemetry;
    opts.detector = &detector;
    FedAvg algo;
    StopWatch wall;
    {
      Span rep_span(tracer, "rep");
      std::vector<ModelParameters> finals;
      {
        Span s(tracer, "fl.run");
        try {
          finals = algo.run(st.clients, st.factory, opts);
        } catch (const std::exception& e) {
          rec.failures.push_back(std::string("fl.run: ") + e.what());
        }
      }
      if (finals.size() == st.clients.size()) {
        Span s(tracer, "metrics.eval");
        // Clients 0..8 hold the nine distinct datasets.
        double auc = 0.0;
        for (std::size_t k = 0; k < 9; ++k) {
          auc += st.clients[k].evaluate_test_auc(finals[0]);
        }
        rec.auc = auc / 9.0;
        Fingerprint fp;
        fp.add(finals[0]);
        fp.add(rec.auc);
        rec.fingerprint = fp.hex();
      }
      rec.rss_mb = vm_rss_mb();
    }
    rec.wall_s = wall.seconds();

    const double steps =
        static_cast<double>(opts.rounds) * kCohort * opts.client.steps;
    rec.counters["nn.expected_steps"] = steps;
    rec.counters["samples"] = steps * opts.client.batch_size;
    rec.wire_bytes = static_cast<double>(comm.uplink_bytes + comm.downlink_bytes);
    rec.sim_time_s = report.total_time_s;
    rec.counters["sim.events"] = static_cast<double>(report.events_processed);
    rec.counters["fl.updates_aggregated"] =
        static_cast<double>(updates_aggregated(telemetry.rounds()));
    add_comm_counters(comm, rec.counters);
    add_detector_counters(detector, rec.counters);

    Rng rng(opts.seed);
    const std::uint64_t model_bytes =
        raw_wire_bytes(initial_model_parameters(st.factory, rng));
    expect(std::isfinite(rec.auc) && rec.auc >= kAucFloor,
           "fleet AUC " + std::to_string(rec.auc) + " below floor",
           rec.failures);
    check_billing(comm, model_bytes, opts.comm, kCohort, opts.rounds,
                  "fleet", rec.failures);
    const std::uint64_t trips = guard_trips(telemetry.rounds());
    for (std::uint64_t t = 0; t < trips; ++t) {
      rec.failures.push_back("fleet: non-finite update rejected");
    }
    rec.attempted = comm.uplink_messages + 1;
    return rec;
  }

  void probes(Tracer& tracer) override {
    Span probe(tracer, "probe");
    probe_model(tracer, 2, run_options(*state_).client.batch_size,
                state_->data[0].train[0].features.shape().dim(1),
                derive_seed(seed_, 20));
  }

 private:
  struct State {
    std::vector<ClientDataset> data;
    ModelFactory factory;
    std::shared_ptr<ModelPool> pool;
    std::vector<Client> clients;
    SimConfig sim;
    std::vector<char> attacker;  // ground truth, by client index
    bool used = false;           // clients have trained since built
  };

  // Training advances each client's rng stream, so every run starts
  // from a freshly built fleet (untimed) to redo the same work.
  void fresh_clients(State& st) const {
    if (st.used) build_clients(st);
    st.used = true;
  }

  void build_clients(State& st) const {
    st.clients.clear();
    st.clients.reserve(kFleetClients);
    Rng rng(derive_seed(seed_, 4));
    for (std::size_t k = 0; k < kFleetClients; ++k) {
      st.clients.emplace_back(static_cast<int>(k) + 1, &st.data[k % 9],
                              st.pool, rng.fork(k),
                              ClientInitSchema::kReplayInit);
    }
  }

  FLRunOptions run_options(const State& st) const {
    FLRunOptions opts;
    opts.rounds = kRounds;
    opts.client.steps = 1;
    opts.client.batch_size = 2;
    opts.client.learning_rate = kLearningRate;
    opts.client.l2_regularization = 1e-5;
    opts.client.mu = 0.0;
    opts.client.reset_optimizer = true;
    opts.seed = derive_seed(seed_, 8);
    opts.participation.kind = ParticipationKind::kUniformSample;
    opts.participation.sample_size = kCohort;
    opts.participation.seed = derive_seed(seed_, 9);
    opts.participation.loss_weighted = false;
    // Dense multi_krum sized for the expected tenth of attackers per
    // cohort, averaging the best-scored half, behind top-k uploads with
    // error feedback and int8 deployments.
    opts.aggregation = aggregation_config(
        "multi_krum", kCohort / static_cast<int>(kAttackerShare), kCohort / 2);
    opts.comm = comm_config(CodecKind::kTopKDelta, CodecKind::kInt8Quant, true);
    opts.sim = st.sim;
    opts.comm_stats = nullptr;
    opts.sim_report = nullptr;
    opts.trace = false;
    opts.telemetry = nullptr;
    opts.anomaly = anomaly_config(true);
    opts.detector = nullptr;
    opts.reputation = nullptr;
    opts.on_round = nullptr;
    return opts;
  }

  // Detector precision (base: flags) and recall (base: attacker
  // updates scored), against the seeded ground truth.
  void add_detector_counters(const AnomalyDetector& detector,
                             std::map<std::string, double>& out) const {
    double hits = 0.0, flags = 0.0, attackers_scored = 0.0;
    for (std::size_t k = 0; k < kFleetClients; ++k) {
      flags += static_cast<double>(detector.flagged(k));
      if (state_->attacker[k]) {
        hits += static_cast<double>(detector.flagged(k));
        attackers_scored += static_cast<double>(detector.scored(k));
      }
    }
    out["fl.detector_hits"] = hits;
    out["fl.detector_flags"] = flags;
    out["fl.attackers_scored"] = attackers_scored;
  }

  std::uint64_t seed_;
  std::unique_ptr<State> state_;
};

}  // namespace

double vm_rss_mb() { return proc_status_mb("VmRSS"); }
double vm_hwm_mb() { return proc_status_mb("VmHWM"); }

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "paper_smoke") {
    return std::make_unique<PaperSmoke>(seed, work_dir);
  }
  if (name == "fleet_1k_robust") return std::make_unique<Fleet>(seed);
  return nullptr;
}

}  // namespace perfbench
