// Network and the workloads that drive it are value types: a copy of both
// taken at any cycle must continue exactly as the original does. Each case
// builds three identical (network, workload) pairs: a reference that is
// never copied, a source, and a target whose network and workload are
// replaced at cycle t by copies of the source's — once by copy-construction,
// once by copy-assignment. All three must end with bit-identical epoch
// statistics and delivered records, and the copy must pass the quiescence
// audit. The EnvFork cases do the same one level up, for the RL
// environment that owns a fabric and its workload.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>

#include "core/env_noc.h"
#include "golden_hash.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "obs/flight_recorder.h"
#include "per_node_injector.h"
#include "scenario/composite_workload.h"
#include "scenario/runtime.h"
#include "trace/generators.h"
#include "trace/recorder.h"
#include "trace/trace_workload.h"

namespace drlnoc {
namespace {

static_assert(std::is_trivially_copyable_v<noc::Topology>);
static_assert(std::is_copy_constructible_v<noc::RoutingAlgorithm> &&
              std::is_copy_assignable_v<noc::RoutingAlgorithm>);
static_assert(std::is_copy_constructible_v<noc::Network> &&
              std::is_copy_assignable_v<noc::Network>);
static_assert(std::is_copy_constructible_v<noc::Router> &&
              std::is_copy_assignable_v<noc::Router>);
static_assert(std::is_copy_constructible_v<noc::Nic> &&
              std::is_copy_assignable_v<noc::Nic>);
static_assert(std::is_copy_constructible_v<noc::SteadyWorkload> &&
              std::is_copy_assignable_v<noc::SteadyWorkload>);
static_assert(std::is_copy_constructible_v<noc::PhasedWorkload> &&
              std::is_copy_assignable_v<noc::PhasedWorkload>);
static_assert(std::is_copy_constructible_v<trace::TraceWorkload> &&
              std::is_copy_assignable_v<trace::TraceWorkload>);
static_assert(std::is_copy_constructible_v<scenario::CompositeWorkload> &&
              std::is_copy_assignable_v<scenario::CompositeWorkload>);
static_assert(std::is_copy_constructible_v<core::NocConfigEnv> &&
              std::is_copy_assignable_v<core::NocConfigEnv>);

constexpr noc::Cycle kEpoch = 128;
constexpr std::uint64_t kCycleLimit = 200000;

/// One (network, workload) pair; the recorder wraps the workload to
/// capture the delivered-packet stream.
template <typename W>
struct Pair {
  std::unique_ptr<noc::Network> net;
  std::unique_ptr<W> source;
  std::unique_ptr<trace::TraceRecorder> rec;
  GoldenHash stats;

  Pair(std::unique_ptr<noc::Network> n, W w)
      : net(std::move(n)), source(std::make_unique<W>(std::move(w))),
        rec(std::make_unique<trace::TraceRecorder>(net->num_nodes(),
                                                   source.get())) {}
};

/// How a case builds a pair and decides that its run is over.
template <typename W>
struct Case {
  std::function<Pair<W>()> make;
  std::function<bool(const Pair<W>&)> done;
};

void mix_epoch(GoldenHash& h, const noc::EpochStats& s) {
  mix_stats(h, s);
  h.mix(s.flits_dropped);
  h.mix(s.retries);
  h.mix(s.packets_lost);
  h.mix(s.retry_latency);
  h.mix(s.rerouted_hops);
  h.mix(s.avg_active_fraction);
  h.mix(s.dynamic_energy_pj);
  for (const noc::TenantEpochStats& t : s.tenants) {
    h.mix(t.packets_offered);
    h.mix(t.packets_received);
    h.mix(t.flits_ejected);
    h.mix(t.avg_latency);
    h.mix(t.p95_latency);
    h.mix(t.retries);
  }
}

/// Steps `p` until `stop` holds or the cycle limit, folding every epoch's
/// statistics into its hash.
template <typename W>
void advance(Pair<W>& p, const std::function<bool(const Pair<W>&)>& stop) {
  while (!stop(p) && p.net->cycle() < kCycleLimit) {
    p.net->step(p.rec.get());
    if (p.net->cycle() % kEpoch == 0) {
      mix_epoch(p.stats, p.net->drain_epoch_stats());
    }
  }
}

struct Outcome {
  noc::Cycle cycles = 0;
  std::uint64_t stats = 0;
  std::uint64_t records = 0;
  bool operator==(const Outcome&) const = default;
};

template <typename W>
Outcome finish(Pair<W>& p, const Case<W>& c) {
  advance(p, c.done);
  EXPECT_LT(p.net->cycle(), kCycleLimit) << "run did not finish";
  mix_epoch(p.stats, p.net->drain_epoch_stats());
  return Outcome{p.net->cycle(), p.stats.value(),
                 tenant_stream_hash(p.rec->records())};
}

int buffered_flits(const noc::Network& net) {
  int total = 0;
  for (noc::NodeId n = 0; n < net.num_nodes(); ++n) {
    total += net.router(n).buffered_flits();
  }
  return total;
}

/// Runs the reference, then for t in {0, mid} and both copy forms, a
/// source/target pair whose target continues on a copy of the source's
/// network and workload.
template <typename W>
void expect_copies_continue_identically(const Case<W>& c, noc::Cycle mid) {
  Pair<W> reference = c.make();
  const Outcome expected = finish(reference, c);
  for (const noc::Cycle t : {noc::Cycle{0}, mid}) {
    for (const bool assign : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "t=" << t << " assign=" << assign);
      Pair<W> source = c.make();
      Pair<W> target = c.make();
      const std::function<bool(const Pair<W>&)> until_t =
          [t](const Pair<W>& p) { return p.net->cycle() >= t; };
      advance(source, until_t);
      advance(target, until_t);
      ASSERT_EQ(source.net->cycle(), t);
      if (t > 0) {
        EXPECT_GT(buffered_flits(*source.net), 0);
      }
      if (assign) {
        *target.net = *source.net;
        *target.source = *source.source;
      } else {
        target.net = std::make_unique<noc::Network>(*source.net);
        target.source = std::make_unique<W>(*source.source);
        target.rec->set_source(target.source.get());
      }
      EXPECT_EQ(target.net->audit_quiescence(), "");
      EXPECT_EQ(finish(source, c), expected);
      EXPECT_EQ(finish(target, c), expected);
      EXPECT_EQ(target.net->audit_quiescence(), "");
    }
  }
}

noc::FaultEvent fault_event(noc::Cycle at, noc::FaultEvent::Kind kind,
                            noc::NodeId node, noc::PortId port, int factor) {
  noc::FaultEvent e;
  e.at_cycle = at;
  e.kind = kind;
  e.node = node;
  e.port = port;
  e.factor = factor;
  return e;
}

TEST(NetworkCopy, FaultedRunWithALaterLinkDeathAndSlowdown) {
  // Transient corruption with retries from the start; a slowdown and a link
  // death (with its routing-table recompute) both fire after the copy.
  constexpr noc::Cycle kMid = 500;
  Case<noc::SteadyWorkload> c;
  c.make = [] {
    noc::NetworkParams p;
    p.width = p.height = 4;
    p.seed = 11;
    auto net = std::make_unique<noc::Network>(p);
    noc::FaultParams fp;
    fp.seed = 3;
    fp.link_fault_rate = 0.01;
    fp.retry_timeout = 32;
    using Kind = noc::FaultEvent::Kind;
    fp.events = {fault_event(kMid + 100, Kind::kSlowdown, 5, 1, 3),
                 fault_event(kMid + 200, Kind::kLinkDown, 6, 1, 2),
                 fault_event(kMid + 900, Kind::kSlowdown, 5, 1, 1)};
    net->set_fault_model(fp);
    auto w = noc::SteadyWorkload::make(net->topology(), "uniform", 0.15);
    return Pair<noc::SteadyWorkload>(std::move(net), std::move(w));
  };
  c.done = [](const auto& p) { return p.net->cycle() >= 2500; };
  expect_copies_continue_identically(c, kMid);
  // A copy taken after the link death carries the degraded routing table.
  expect_copies_continue_identically(c, kMid + 300);

  // The run reaches the fault paths it claims to cover.
  Pair<noc::SteadyWorkload> probe = c.make();
  advance(probe, c.done);
  const noc::EpochStats s = probe.net->drain_epoch_stats();
  EXPECT_GT(s.retries + s.rerouted_hops, 0u);
  EXPECT_TRUE(probe.net->fault_model()->any_link_dead());
}

/// A DNN pipeline trace sharing a 4x4 mesh with windowed uniform
/// background, with per-tenant accounting on.
Case<scenario::CompositeWorkload> multi_tenant_case() {
  Case<scenario::CompositeWorkload> c;
  c.make = [] {
    scenario::Scenario s;
    s.net.width = s.net.height = 4;
    s.net.seed = 42;
    scenario::TenantSpec dnn;
    dnn.name = "dnn";
    dnn.kind = scenario::WorkloadKind::kTrace;
    dnn.trace = std::make_shared<const trace::Trace>(
        trace::generate_dnn_pipeline({16, 4, 4, 3, 64.0, 32.0, 8}));
    s.tenants.push_back(std::move(dnn));
    scenario::TenantSpec bg;
    bg.name = "bg";
    bg.kind = scenario::WorkloadKind::kSteady;
    bg.rate = 0.05;
    bg.start = 100.0;
    bg.stop = 3000.0;
    s.tenants.push_back(std::move(bg));
    auto net = scenario::build_network(s);
    auto w = scenario::build_workload(s, net->topology());
    net->set_tenant_tracking(w->num_tenants());
    return Pair<scenario::CompositeWorkload>(std::move(net), std::move(*w));
  };
  c.done = [](const auto& p) {
    return p.source->quiescent(p.net->core_time()) && p.net->drained();
  };
  return c;
}

TEST(NetworkCopy, MultiTenantScenario) {
  expect_copies_continue_identically(multi_tenant_case(), 700);
}

TEST(NetworkCopy, TraceTenantWithAStaleReadyBound) {
  // The per-node protocol pops trace records without refreshing the
  // tenant's ready bound, so after a per-node prefix the bound reads lower
  // than the exact one a tick-path run holds at the same cycle. A copy
  // taken then must carry the bound and, like the original, continue on
  // the tick path exactly as a run that used it throughout.
  constexpr noc::Cycle kMid = 700;
  using P = Pair<scenario::CompositeWorkload>;
  const Case<scenario::CompositeWorkload> c = multi_tenant_case();
  const std::function<bool(const P&)> until_mid = [](const P& p) {
    return p.net->cycle() >= kMid;
  };
  const auto bound = [](const P& p) {
    return std::get<trace::TraceWorkload>(p.source->tenant(0).workload)
        .ready_bound();
  };
  P reference = c.make();
  const Outcome expected = finish(reference, c);

  P source = c.make();
  PerNode per_node(*source.source);
  source.rec->set_source(&per_node);
  advance(source, until_mid);
  source.rec->set_source(source.source.get());
  P exact = c.make();
  advance(exact, until_mid);
  ASSERT_EQ(source.net->cycle(), kMid);
  EXPECT_LT(bound(source), bound(exact));

  P target = c.make();
  advance(target, until_mid);
  *target.net = *source.net;
  *target.source = *source.source;
  EXPECT_EQ(bound(target), bound(source));
  EXPECT_EQ(target.net->audit_quiescence(), "");
  EXPECT_EQ(finish(source, c), expected);
  EXPECT_EQ(finish(target, c), expected);
  EXPECT_EQ(target.net->audit_quiescence(), "");
}

TEST(NetworkCopy, DependencyGatedTraceReplay) {
  // Records wait on their dependencies' deliveries, so the injector's live
  // packet map must line up with the copy's packet ids.
  Case<trace::TraceWorkload> c;
  c.make = [] {
    noc::NetworkParams p;
    p.width = p.height = 4;
    return Pair<trace::TraceWorkload>(
        std::make_unique<noc::Network>(p),
        trace::TraceWorkload(
            trace::generate_dnn_pipeline({16, 4, 4, 3, 64.0, 32.0, 8})));
  };
  c.done = [](const auto& p) { return p.source->done() && p.net->drained(); };
  expect_copies_continue_identically(c, 300);
}

TEST(NetworkCopy, CopiesStepOnSeparateThreads) {
  // Copies share only the immutable topology and base routing. Two copies
  // of one fabric each install a fault model with a link death and step
  // concurrently with their own injectors, so both threads read the shared
  // topology's adjacency (fault validation, the routing-table rebuild and
  // every degraded route) before anything else has. Both must match a
  // sequential run of a third copy.
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 5;
  const noc::Network original(p);
  const auto run = [](noc::Network net) {
    noc::FaultParams fp;
    fp.events = {fault_event(10, noc::FaultEvent::Kind::kLinkDown, 6, 1, 2)};
    net.set_fault_model(fp);
    auto w = noc::SteadyWorkload::make(net.topology(), "uniform", 0.1);
    GoldenHash h;
    for (int e = 0; e < 8; ++e) {
      for (int c = 0; c < 256; ++c) net.step(&w);
      mix_epoch(h, net.drain_epoch_stats());
    }
    return h.value();
  };
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::thread ta([&] { a = run(original); });
  std::thread tb([&] { b = run(original); });
  ta.join();
  tb.join();
  const std::uint64_t expected = run(original);
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);
}

TEST(NetworkCopy, CopySharesObservabilityTaps) {
  // Taps are not owned: a copy writes to the same recorder until the caller
  // detaches it, and detaching on the copy leaves the original attached.
  noc::NetworkParams p;
  p.width = p.height = 4;
  noc::Network net(p);
  obs::FlightRecorder recorder(obs::FlightRecorderParams{});
  net.set_flight_recorder(&recorder);
  noc::Network copy(net);
  EXPECT_EQ(copy.flight_recorder(), &recorder);
  copy.set_flight_recorder(nullptr);
  EXPECT_EQ(net.flight_recorder(), &recorder);
}


// ------------------------------------------------------------- env fork ---

constexpr int kForkEpochs = 8;         ///< epochs per episode
constexpr int kForkAt = 3;             ///< epochs stepped before the fork
constexpr int kForkEpochCycles = 256;  ///< router cycles per epoch

/// Per epoch after the fork: a hash of the state, the reward and every
/// counter of last_stats(); then a hash of the next episode's first state.
struct EnvTrace {
  std::vector<std::uint64_t> epochs;
  std::uint64_t rerouted_hops = 0;
  bool operator==(const EnvTrace&) const = default;
};

/// A fixed action sequence that sweeps the action space.
int fork_action(int epoch, int num_actions) {
  return (epoch * 7 + 3) % num_actions;
}

/// Steps `env` from epoch `from` to the end of its episode, then starts the
/// next episode, recording every epoch.
EnvTrace run_to_end(core::NocConfigEnv& env, int from) {
  EnvTrace out;
  bool done = false;
  for (int e = from; !done; ++e) {
    const rl::StepResult r = env.step(fork_action(e, env.num_actions()));
    done = r.done;
    GoldenHash h;
    for (const double x : r.next_state) h.mix(x);
    h.mix(r.reward);
    mix_epoch(h, env.last_stats());
    out.epochs.push_back(h.value());
    out.rerouted_hops += env.last_stats().rerouted_hops;
  }
  // The episode counter and feature EWMAs travel with the copy too.
  GoldenHash next;
  for (const double x : env.reset()) next.mix(x);
  out.epochs.push_back(next.value());
  return out;
}

/// Three envs take the same actions: one never copied, one copied at epoch
/// kForkAt of its second training episode, and that copy. Copy-assignment
/// lands on an env that has run an episode of its own. All three must
/// match bit for bit to the end of the episode and into the next. The
/// source is destroyed before the copies step, so a copy that still read
/// anything of its source's would read freed memory.
EnvTrace expect_forks_continue_identically(const core::NocEnvParams& params) {
  core::NocConfigEnv reference(params);
  std::optional<core::NocConfigEnv> source(std::in_place, params);
  const auto warm_up = [](core::NocConfigEnv& env) {
    (void)env.reset();
    for (int e = 0; e < kForkEpochs; ++e) {
      (void)env.step(fork_action(e + 5, env.num_actions()));
    }
    (void)env.reset();
    for (int e = 0; e < kForkAt; ++e) {
      (void)env.step(fork_action(e, env.num_actions()));
    }
  };
  warm_up(reference);
  warm_up(*source);

  core::NocConfigEnv constructed(*source);
  core::NocConfigEnv assigned(params);
  (void)assigned.reset();
  (void)assigned.step(0);
  assigned = *source;
  EXPECT_EQ(constructed.episode(), source->episode());

  const EnvTrace expected = run_to_end(reference, kForkAt);
  EXPECT_EQ(expected.epochs.size(),
            static_cast<std::size_t>(kForkEpochs - kForkAt + 1));
  EXPECT_EQ(run_to_end(*source, kForkAt), expected);
  source.reset();
  EXPECT_EQ(run_to_end(constructed, kForkAt), expected);
  EXPECT_EQ(run_to_end(assigned, kForkAt), expected);
  return expected;
}

core::NocEnvParams fork_env_params(
    std::shared_ptr<const scenario::Scenario> s) {
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.net.seed = 42;
  ep.actions = core::ActionSpace({1, 2, 4}, {2, 4}, {0, 3});
  ep.scenario = std::move(s);
  ep.epoch_cycles = kForkEpochCycles;
  ep.epochs_per_episode = kForkEpochs;
  return ep;
}

TEST(EnvFork, DefaultPhasedScenario) {
  expect_forks_continue_identically(fork_env_params(nullptr));
}

TEST(EnvFork, TraceTenantWithQosBackground) {
  // The T6 shape: a looping latency-critical DNN trace on a node subset
  // beside uniform background, so reward and features run tenant-aware.
  auto s = std::make_shared<scenario::Scenario>();
  s->net.width = s->net.height = 4;
  scenario::TenantSpec dnn;
  dnn.name = "dnn";
  dnn.kind = scenario::WorkloadKind::kTrace;
  dnn.trace = std::make_shared<const trace::Trace>(
      trace::generate_dnn_pipeline({8, 2, 4, 3, 64.0, 32.0, 8}));
  dnn.loop = true;
  dnn.nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  dnn.qos = scenario::QosClass::kLatencyCritical;
  dnn.p95_target = 200.0;
  s->tenants.push_back(std::move(dnn));
  scenario::TenantSpec bg;
  bg.name = "background";
  bg.rate = 0.05;
  bg.qos = scenario::QosClass::kBackground;
  s->tenants.push_back(std::move(bg));
  s->duration = 1e6;  // episodes end at epochs_per_episode
  const core::NocEnvParams ep = fork_env_params(std::move(s));
  ASSERT_FALSE(core::NocConfigEnv(ep).params().reward.tenant_qos.empty());
  expect_forks_continue_identically(ep);
}

TEST(EnvFork, FaultedScenarioWithALinkDeath) {
  // Transient corruption with retries throughout; a link dies after the
  // fork, so the copies rebuild their routing tables on their own.
  noc::NetworkParams net;
  net.width = net.height = 4;
  auto s = std::make_shared<scenario::Scenario>(scenario::phased_scenario(net));
  s->faults.seed = 3;
  s->faults.link_fault_rate = 0.01;
  s->faults.retry_timeout = 32;
  // reset() simulates one epoch, so the fork lands at cycle
  // (kForkAt + 1) * kForkEpochCycles of the episode's fabric.
  s->faults.events = {fault_event((kForkAt + 1) * kForkEpochCycles + 300,
                                  noc::FaultEvent::Kind::kLinkDown, 6, 1, 2)};
  const EnvTrace t = expect_forks_continue_identically(fork_env_params(s));
  EXPECT_GT(t.rerouted_hops, 0u);
}

}  // namespace
}  // namespace drlnoc
