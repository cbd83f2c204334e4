// serve_16x16: the `scenarioctl run` flow of a scheduled scenario. A 16x16
// mesh carries a looping latency-critical DNN pipeline on nodes 0-63 (seeded
// placement) plus uniform background traffic; the scenario's heuristic
// [controller] schedule reconfigures the fabric every 512-cycle epoch, and
// each epoch's decision waits for the previous epoch's statistics.
//
// The untraced repetition loops Controller::decide + NocConfigEnv::step the
// way core::evaluate does, reading the clock once per epoch. The traced one
// composes the same epoch from public calls (build_network/build_workload,
// apply_config/step/drain_epoch_stats, FeatureExtractor, RewardFunction,
// Controller) so every piece can be timed; its digest must equal the
// untraced digest, which proves the composition runs the same program.
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "core/env_noc.h"
#include "core/features.h"
#include "core/parallel.h"
#include "harness.h"
#include "scenario/runtime.h"
#include "scenario/scenario_io.h"
#include "trace/generators.h"
#include "trace/trace_io.h"

namespace drlnoc::e2e {
namespace {

constexpr int kSize = 16;
constexpr int kNodes = kSize * kSize;

/// NocEnvParams for a scheduled run, as scenario::run_scheduled builds them.
core::NocEnvParams scheduled_params(const scenario::Scenario& scn) {
  core::NocEnvParams ep;
  ep.scenario = std::make_shared<scenario::Scenario>(scn);
  ep.net.seed = scn.net.seed;
  ep.epoch_cycles = scn.controller.epoch_cycles;
  ep.epochs_per_episode = scn.controller.epochs;
  return ep;
}

/// Output checks shared by both repetitions: the digest covers every
/// epoch's action, reward, statistics and observed state.
struct ServeOutput {
  Digest digest;
  std::uint64_t offered = 0;
  std::uint64_t received = 0;
  bool finite = true;

  void epoch(int action, double reward, const noc::EpochStats& s,
             const rl::State& state) {
    digest.u64(static_cast<std::uint64_t>(action));
    digest.f64(reward);
    digest_epoch(digest, s);
    for (double x : state) digest.f64(x);
    offered += s.packets_offered;
    received += s.packets_received;
    finite = finite && std::isfinite(reward);
  }

  void finish(RepResult& r) const {
    r.digest = digest.value();
    if (received > offered) {
      r.failures.push_back("packets_received " + std::to_string(received) +
                           " > packets_offered " + std::to_string(offered));
    }
    if (!finite) r.failures.push_back("non-finite reward");
  }
};

class Serve final : public Workload {
 public:
  explicit Serve(const WorkloadOptions& o)
      : o_(o),
        epochs_(o.smoke ? 20 : 32),
        path_(o.workdir + "/serve.drlsc"),
        timer_pair_s_(measure_timer_pair_s()) {}

  void prepare() override {
    trace::DnnPipelineParams dp;
    dp.nodes = 64;
    dp.batches = 4;
    auto dnn = std::make_shared<const trace::Trace>(
        trace::generate_dnn_pipeline(dp));
    trace::TraceWriter::write_file(o_.workdir + "/serve_dnn.drltrb", *dnn);

    scenario::Scenario s;
    s.name = "serve_16x16";
    s.net.width = s.net.height = kSize;
    s.net.seed = derive_seed(o_.seed, 1) % 1000000007ULL;
    s.duration = 1e7;
    scenario::TenantSpec critical;
    critical.name = "dnn";
    critical.kind = scenario::WorkloadKind::kTrace;
    critical.trace = dnn;
    critical.trace_file = "serve_dnn.drltrb";
    critical.loop = true;
    critical.nodes = seeded_permutation(64, derive_seed(o_.seed, 2));
    critical.qos = scenario::QosClass::kLatencyCritical;
    critical.p95_target = 300.0;
    s.tenants.push_back(std::move(critical));
    scenario::TenantSpec background;
    background.name = "background";
    background.kind = scenario::WorkloadKind::kSteady;
    background.pattern = "uniform";
    background.rate = 0.01;
    background.qos = scenario::QosClass::kBackground;
    s.tenants.push_back(std::move(background));
    s.controller.type = "heuristic";
    s.controller.epoch_cycles = 512;
    s.controller.epochs = epochs_;
    scenario::ScenarioWriter::write_file(path_, s);
  }

  RepResult run(bool traced) override {
    return traced ? run_traced() : run_plain();
  }

 private:
  RepResult run_plain() {
    RepResult r;
    const auto t0 = Clock::now();
    const scenario::Scenario scn = scenario::ScenarioReader::read_file(path_);
    core::NocConfigEnv env(scheduled_params(scn));
    const auto controller = scenario::build_scheduled_controller(scn, env);
    controller->begin_episode();
    env.set_eval_mode(true);
    rl::State state = env.reset();
    noc::EpochStats stats = env.last_stats();
    ServeOutput out;
    out.epoch(-1, 0.0, stats, state);
    auto last = Clock::now();
    r.setup_s = seconds_between(t0, last);
    const double cpu0 = process_cpu_s();
    for (int e = 0; e < epochs_; ++e) {
      const int action = controller->decide(stats, state);
      const rl::StepResult sr = env.step(action);
      stats = env.last_stats();
      state = sr.next_state;
      out.epoch(action, sr.reward, stats, state);
      ++r.ops;
      const auto now = Clock::now();
      r.epoch_ms.push_back(1e3 * seconds_between(last, now));
      last = now;
    }
    r.wall_s = seconds_between(t0, last) - r.setup_s;
    r.cpu_s = process_cpu_s() - cpu0;
    out.finish(r);
    return r;
  }

  RepResult run_traced() {
    RepResult r;
    TracedScope scope;
    Layers& l = r.layers;
    const auto t0 = Clock::now();
    scenario::Scenario scn;
    {
      Span s(l["scenario.load.busy_s"]);
      scn = scenario::ScenarioReader::read_file(path_);
    }
    core::NocEnvParams ep = scheduled_params(scn);
    {
      const ProfileMark mark;
      double calibrate_s = 0.0;
      {
        Span s(calibrate_s);
        ep = core::with_calibrated_power_ref(ep);
      }
      l["core.calibrate.busy_s"] =
          calibrate_s - mark.seconds_since(obs::Phase::kNetStep);
      l["core.calibrate.cycles"] =
          static_cast<double>(mark.count_since(obs::Phase::kNetStep));
    }
    // With the reference preset the environment skips its own calibration;
    // it supplies the resolved parameters, the reward and the controller.
    const core::NocConfigEnv env(ep);
    const auto controller = scenario::build_scheduled_controller(scn, env);
    core::FeatureExtractor features(env.actions(), kNodes,
                                    core::FeatureParams{},
                                    env.params().reward.tenant_qos);
    std::unique_ptr<noc::Network> net;
    std::unique_ptr<scenario::CompositeWorkload> workload;
    {
      Span s(l["noc.build.busy_s"]);
      net = scenario::build_network(scn);
      workload = scenario::build_workload(scn, net->topology());
      net->set_tenant_tracking(scn.num_tenants());
    }
    CountingInjector injector(*workload, timer_pair_s_);
    double active = 0.0, delivered = 0.0, changes = 0.0;
    const auto run_epoch = [&] {
      for (std::uint64_t c = 0; c < ep.epoch_cycles; ++c) net->step(&injector);
      Span s(l["noc.drain.busy_s"]);
      return net->drain_epoch_stats();
    };

    controller->begin_episode();
    features.reset();
    noc::EpochStats stats = run_epoch();
    rl::State state;
    {
      Span s(l["core.features.busy_s"]);
      state = features.extract(stats);
    }
    delivered += static_cast<double>(stats.packets_received);
    ServeOutput out;
    out.epoch(-1, 0.0, stats, state);
    const auto t1 = Clock::now();
    r.setup_s = seconds_between(t0, t1);
    for (int e = 0; e < epochs_; ++e) {
      int action = 0;
      {
        Span s(l["core.decide.busy_s"]);
        action = controller->decide(stats, state);
      }
      const noc::NocConfig config = env.actions().decode(action);
      if (!(config == net->config())) ++changes;
      {
        Span s(l["noc.reconfig.busy_s"]);
        net->apply_config(config);
      }
      stats = run_epoch();
      double reward = 0.0;
      {
        Span s(l["core.reward.busy_s"]);
        reward = env.reward().compute(stats);
      }
      {
        Span s(l["core.features.busy_s"]);
        state = features.extract(stats);
      }
      out.epoch(action, reward, stats, state);
      active += stats.avg_active_fraction;
      delivered += static_cast<double>(stats.packets_received);
      ++r.ops;
    }
    r.wall_s = seconds_between(t1, Clock::now());
    out.finish(r);

    injector.report(l, "scenario.inject");
    l["noc.active_fraction"] = active / epochs_;
    l["noc.packets_delivered"] = delivered;
    l["noc.reconfig.calls"] = epochs_;
    l["noc.reconfig.changes"] = changes;
    scope.finish(r, kNodes,
                 static_cast<double>((epochs_ + 1) * ep.epoch_cycles),
                 injector.busy_s(),
                 {"scenario.load.busy_s", "core.calibrate.busy_s",
                  "noc.build.busy_s", "noc.drain.busy_s", "noc.reconfig.busy_s",
                  "core.decide.busy_s", "core.features.busy_s",
                  "core.reward.busy_s", "scenario.inject.busy_s"});
    return r;
  }

  WorkloadOptions o_;
  int epochs_;
  std::string path_;
  double timer_pair_s_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const WorkloadOptions& o) {
  return std::make_unique<Serve>(o);
}

}  // namespace drlnoc::e2e
