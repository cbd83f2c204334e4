// train_t6: T6 QoS training as bench/table6_qos defines it — an 8x8 mesh with
// a DNN pipeline trace on nodes 0-15 (seeded placement) and uniform
// background at 0.05, the tenant-aware QoS reward, bench::standard_dqn, and
// the multi-actor collector (core::train_dqn_parallel, round 8, 2 actors).
// Eight lane fabrics are live at once, so this is the workload where the
// lane loop, replay and the DQN learn step do real work.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/parallel.h"
#include "harness.h"
#include "rl/policy_io.h"
#include "scenario/scenario.h"
#include "trace/generators.h"

namespace drlnoc::e2e {
namespace {

constexpr int kSize = 8;
constexpr int kRound = 8;

class Train final : public Workload {
 public:
  explicit Train(const WorkloadOptions& o)
      : o_(o),
        episodes_(o.smoke ? 2 : 8),
        epochs_(o.smoke ? 8 : 20),
        traffic_seed_(derive_seed(o.seed, 11) % 1000000007ULL),
        placement_(seeded_permutation(16, derive_seed(o.seed, 12))) {}

  void prepare() override {}

  RepResult run(bool traced) override {
    RepResult r;
    std::unique_ptr<TracedScope> scope;
    if (traced) scope = std::make_unique<TracedScope>();
    Layers& l = r.layers;
    double load_s = 0.0, calibrate_s = 0.0;

    const auto t0 = Clock::now();
    core::NocEnvParams ep;
    {
      Span s(load_s);
      ep.scenario = build_scenario();
    }
    ep.net.seed = traffic_seed_;
    ep.epoch_cycles = 512;
    ep.epochs_per_episode = epochs_;
    const auto steps = static_cast<std::uint64_t>(episodes_ * epochs_);
    std::unique_ptr<rl::DqnAgent> agent;
    const ProfileMark probe_mark;
    {
      Span s(calibrate_s);
      const core::NocConfigEnv probe(ep);  // observation/action dims
      agent = std::make_unique<rl::DqnAgent>(
          probe.state_size(), probe.num_actions(), bench::standard_dqn(steps));
    }
    double calibrate_net_s = probe_mark.seconds_since(obs::Phase::kNetStep);
    std::uint64_t calibrate_cycles =
        probe_mark.count_since(obs::Phase::kNetStep);
    const auto t1 = Clock::now();
    r.setup_s = seconds_between(t0, t1);

    const double cpu0 = process_cpu_s();
    // The traced repetition runs the trainer's up-front power calibration
    // (core::with_calibrated_power_ref) itself so it can be timed; the
    // trainer then finds the reference set and skips it.
    core::NocEnvParams train_params = ep;
    if (traced) {
      const ProfileMark mark;
      {
        Span s(calibrate_s);
        train_params = core::with_calibrated_power_ref(ep);
      }
      calibrate_net_s += mark.seconds_since(obs::Phase::kNetStep);
      calibrate_cycles += mark.count_since(obs::Phase::kNetStep);
    }
    const ProfileMark loop_mark;
    core::ParallelTrainParams tp;
    tp.episodes = episodes_;
    tp.round = kRound;
    tp.actors = kThreads;
    tp.eval_every = 0;
    const core::TrainResult result =
        core::train_dqn_parallel(train_params, *agent, tp);
    r.wall_s = seconds_between(t1, Clock::now());
    r.cpu_s = process_cpu_s() - cpu0;
    r.ops = static_cast<std::uint64_t>(episodes_);

    Digest d;
    bool finite = true;
    for (double g : result.episode_returns) {
      d.f64(g);
      finite = finite && std::isfinite(g);
    }
    std::ostringstream blob;
    agent->save(blob);
    d.str(rl::policy_fingerprint(blob.str()));
    r.digest = d.value();
    if (result.episode_returns.size() != static_cast<std::size_t>(episodes_)) {
      r.failures.push_back("episode count " +
                           std::to_string(result.episode_returns.size()));
    }
    if (!finite) r.failures.push_back("non-finite episode return");
    const std::uint64_t warm = std::max<std::uint64_t>(
        agent->params().min_replay, agent->params().batch_size);
    const std::uint64_t expected = steps >= warm ? steps - warm + 1 : 0;
    if (agent->learn_steps() != expected) {
      r.failures.push_back("learn_steps " +
                           std::to_string(agent->learn_steps()) +
                           " != expected " + std::to_string(expected));
    }
    if (!traced) return r;

    // The collector's own phases. Its Network::step time is split between
    // episode resets and env steps by cycle count: both run inside the one
    // library call, and only the env steps carry a profiler phase.
    const double useful = static_cast<double>(episodes_ * (epochs_ + 1) * 512);
    const double loop_cycles =
        static_cast<double>(loop_mark.count_since(obs::Phase::kNetStep));
    const double env_step_net_s =
        loop_cycles > 0.0 ? loop_mark.seconds_since(obs::Phase::kNetStep) *
                                static_cast<double>(steps * 512) / loop_cycles
                          : 0.0;
    const auto phase_s = [](obs::Phase p) {
      return static_cast<double>(obs::Profiler::instance().totals(p).ns) * 1e-9;
    };
    l["scenario.load.busy_s"] = load_s;
    l["core.calibrate.busy_s"] = calibrate_s - calibrate_net_s;
    l["core.calibrate.cycles"] = static_cast<double>(calibrate_cycles);
    l["core.env_step.self_s"] = phase_s(obs::Phase::kEnvStep) - env_step_net_s;
    l["core.rollout.busy_s"] = phase_s(obs::Phase::kRollout);
    l["rl.replay_sample.busy_s"] = phase_s(obs::Phase::kReplaySample);
    l["rl.learn.busy_s"] =
        phase_s(obs::Phase::kLearn) - phase_s(obs::Phase::kReplaySample);
    l["rl.learn.steps"] = static_cast<double>(agent->learn_steps());
    scope->finish(r, kSize * kSize, useful, 0.0,
                  {"scenario.load.busy_s", "core.calibrate.busy_s",
                   "core.env_step.self_s", "core.rollout.busy_s",
                   "rl.replay_sample.busy_s", "rl.learn.busy_s"});
    return r;
  }

 private:
  std::shared_ptr<const scenario::Scenario> build_scenario() const {
    auto s = std::make_shared<scenario::Scenario>();
    s->name = "qos_dnn_vs_background";
    s->net.width = s->net.height = kSize;
    s->net.seed = traffic_seed_;
    s->duration = 1e6;
    scenario::TenantSpec dnn;
    dnn.name = "dnn";
    dnn.kind = scenario::WorkloadKind::kTrace;
    trace::DnnPipelineParams dp;
    dp.nodes = 16;
    dp.batches = 4;
    dnn.trace = std::make_shared<const trace::Trace>(
        trace::generate_dnn_pipeline(dp));
    dnn.loop = true;
    dnn.nodes = placement_;
    dnn.qos = scenario::QosClass::kLatencyCritical;
    dnn.p95_target = 300.0;
    s->tenants.push_back(std::move(dnn));
    scenario::TenantSpec bg;
    bg.name = "background";
    bg.kind = scenario::WorkloadKind::kSteady;
    bg.pattern = "uniform";
    bg.rate = 0.05;
    bg.qos = scenario::QosClass::kBackground;
    s->tenants.push_back(std::move(bg));
    return s;
  }

  WorkloadOptions o_;
  int episodes_;
  int epochs_;
  std::uint64_t traffic_seed_;
  std::vector<noc::NodeId> placement_;
};

}  // namespace

std::unique_ptr<Workload> make_train(const WorkloadOptions& o) {
  return std::make_unique<Train>(o);
}

}  // namespace drlnoc::e2e
