// Scenario subsystem tests: node-set parsing, `.drlsc` round-trips and
// strict-key validation, deterministic composite merging (single-tenant
// bit-identity to direct replay, tenant attribution, windows, placements),
// per-tenant statistics, injector hook ordering across reconfiguration, RL
// environment wiring, and the golden thread-invariance hash.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "core/env_noc.h"
#include "core/trainer.h"
#include "golden_hash.h"
#include "noc/simulator.h"
#include "noc/workload.h"
#include "scenario/composite_workload.h"
#include "scenario/runtime.h"
#include "scenario/scenario_io.h"
#include "trace/generators.h"
#include "trace/recorder.h"
#include "trace/trace_io.h"
#include "trace/trace_workload.h"
#include "util/thread_pool.h"

namespace drlnoc::scenario {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

trace::Trace dnn_trace() {
  return trace::generate_dnn_pipeline({16, 4, 4, 3, 64.0, 32.0, 8});
}

/// The reference multi-tenant scenario used across these tests: a DNN
/// pipeline trace sharing a 4x4 mesh with windowed uniform background.
Scenario mixed_scenario(std::uint64_t seed = 42) {
  Scenario s;
  s.name = "test_mix";
  s.net.width = s.net.height = 4;
  s.net.seed = seed;
  TenantSpec dnn;
  dnn.name = "dnn";
  dnn.kind = WorkloadKind::kTrace;
  dnn.trace = std::make_shared<const trace::Trace>(dnn_trace());
  s.tenants.push_back(std::move(dnn));
  TenantSpec bg;
  bg.name = "bg";
  bg.kind = WorkloadKind::kSteady;
  bg.rate = 0.05;
  bg.start = 100.0;
  bg.stop = 3000.0;
  s.tenants.push_back(std::move(bg));
  return s;
}

// --- node sets -------------------------------------------------------------

TEST(NodeSet, ParsesIdsRangesAndAll) {
  EXPECT_TRUE(parse_node_set("all", 16).empty());
  EXPECT_TRUE(parse_node_set("", 16).empty());
  EXPECT_EQ(parse_node_set("3", 16), (std::vector<noc::NodeId>{3}));
  EXPECT_EQ(parse_node_set("0-3", 16), (std::vector<noc::NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(parse_node_set("12,5,8-10", 16),
            (std::vector<noc::NodeId>{12, 5, 8, 9, 10}));
}

TEST(NodeSet, RejectsMalformedSets) {
  EXPECT_THROW(parse_node_set("16", 16), std::invalid_argument);   // range
  EXPECT_THROW(parse_node_set("-1", 16), std::invalid_argument);
  EXPECT_THROW(parse_node_set("5-2", 16), std::invalid_argument);  // inverted
  EXPECT_THROW(parse_node_set("1,,2", 16), std::invalid_argument);
  EXPECT_THROW(parse_node_set("abc", 16), std::invalid_argument);
  EXPECT_THROW(parse_node_set("1x", 16), std::invalid_argument);
  EXPECT_THROW(parse_node_set("3,3", 16), std::invalid_argument);  // dup
  EXPECT_THROW(parse_node_set("2-5,4", 16), std::invalid_argument);
}

TEST(NodeSet, FormatsCanonically) {
  EXPECT_EQ(format_node_set({}), "all");
  EXPECT_EQ(format_node_set({5}), "5");
  EXPECT_EQ(format_node_set({0, 1, 2, 3, 8, 10, 11, 12}), "0-3,8,10-12");
  EXPECT_EQ(format_node_set({4, 5}), "4,5");
}

// --- validation ------------------------------------------------------------

TEST(ScenarioValidate, CatchesBadTenants) {
  Scenario s = mixed_scenario();
  EXPECT_NO_THROW(s.validate());

  Scenario bad_scale = mixed_scenario();
  bad_scale.tenants[0].rate_scale = 0.0;
  EXPECT_THROW(bad_scale.validate(), std::invalid_argument);

  Scenario bad_rate = mixed_scenario();
  bad_rate.tenants[1].rate = -0.5;
  EXPECT_THROW(bad_rate.validate(), std::invalid_argument);

  Scenario bad_window = mixed_scenario();
  bad_window.tenants[1].stop = bad_window.tenants[1].start;
  EXPECT_THROW(bad_window.validate(), std::invalid_argument);

  Scenario dup_node = mixed_scenario();
  dup_node.tenants[1].nodes = {3, 3};
  EXPECT_THROW(dup_node.validate(), std::invalid_argument);

  Scenario small_placement = mixed_scenario();
  small_placement.tenants[0].nodes = {0, 1, 2};  // trace needs 16
  EXPECT_THROW(small_placement.validate(), std::invalid_argument);

  // Open-ended background with no duration would never terminate.
  Scenario unbounded = mixed_scenario();
  unbounded.tenants[1].stop = kInf;
  EXPECT_THROW(unbounded.validate(), std::invalid_argument);
  unbounded.duration = 5000.0;  // a horizon makes it well-defined
  EXPECT_NO_THROW(unbounded.validate());

  // A looping trace is unbounded too.
  Scenario looping = mixed_scenario();
  looping.tenants[0].loop = true;
  EXPECT_THROW(looping.validate(), std::invalid_argument);
}

// --- .drlsc IO -------------------------------------------------------------

TEST(ScenarioIo, WriteReadRoundTrips) {
  const std::string trace_path = ::testing::TempDir() + "scn_rt.drltrc";
  trace::TraceWriter::write_file(trace_path, dnn_trace());

  Scenario s = mixed_scenario(7);
  s.tenants[0].trace_file = "scn_rt.drltrc";
  s.tenants[0].nodes = parse_node_set("0-15", 16);
  s.duration = 4096.0;
  s.tenants[1].phase_scale = 1.0;

  std::ostringstream os;
  ScenarioWriter::write_text(os, s);
  const Scenario back = ScenarioReader::read_text(os.str(),
                                                  ::testing::TempDir());
  EXPECT_EQ(back.name, s.name);
  EXPECT_EQ(back.net.width, s.net.width);
  EXPECT_EQ(back.net.seed, s.net.seed);
  EXPECT_DOUBLE_EQ(back.duration, s.duration);
  ASSERT_EQ(back.tenants.size(), s.tenants.size());
  EXPECT_EQ(back.tenants[0].kind, WorkloadKind::kTrace);
  EXPECT_EQ(*back.tenants[0].trace, *s.tenants[0].trace);
  EXPECT_EQ(back.tenants[0].nodes, s.tenants[0].nodes);
  EXPECT_EQ(back.tenants[1].kind, WorkloadKind::kSteady);
  EXPECT_DOUBLE_EQ(back.tenants[1].rate, s.tenants[1].rate);
  EXPECT_DOUBLE_EQ(back.tenants[1].start, s.tenants[1].start);
  EXPECT_DOUBLE_EQ(back.tenants[1].stop, s.tenants[1].stop);
}

TEST(ScenarioIo, RejectsBadInput) {
  // Missing magic.
  EXPECT_THROW(ScenarioReader::read_text("width = 4\n"), std::runtime_error);
  // Wrong version.
  EXPECT_THROW(ScenarioReader::read_text("drlsc 99\ntenants = 1\n"),
               std::runtime_error);
  // Unknown (misspelled) keys are rejected, not ignored.
  EXPECT_THROW(ScenarioReader::read_text(
                   "drlsc 1\nwidth = 4\nheight = 4\ntenants = 1\n"
                   "tenant0.workload = steady\ntenant0.rtae = 0.1\n"),
               std::invalid_argument);
  // Tenant values flow through validation (scenario-level rate checks).
  EXPECT_THROW(ScenarioReader::read_text(
                   "drlsc 1\nwidth = 4\nheight = 4\nduration = 100\n"
                   "tenants = 1\ntenant0.workload = steady\n"
                   "tenant0.rate = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioReader::read_text("drlsc 1\nwidth = 4\nheight = 4\n"),
               std::invalid_argument);  // no tenants
}

TEST(ScenarioIo, InfiniteStopRoundTrips) {
  Scenario s = mixed_scenario();
  s.duration = 2000.0;
  s.tenants[1].stop = kInf;
  s.tenants[0].kind = WorkloadKind::kPhased;  // avoid trace_file plumbing
  s.tenants[0].trace.reset();
  std::ostringstream os;
  ScenarioWriter::write_text(os, s);
  const Scenario back = ScenarioReader::read_text(os.str());
  EXPECT_TRUE(std::isinf(back.tenants[1].stop));
}

// --- composite merging -----------------------------------------------------

/// run_scenario's steps with a recorder wrapped around the workload, so the
/// run's delivered-packet stream can be inspected (the network keeps none).
noc::RunResult run_recorded(noc::Network& net, CompositeWorkload& w,
                            trace::TraceRecorder& rec,
                            const ScenarioRunParams& params = {}) {
  if (params.duration > 0.0) w.set_horizon(params.duration);
  net.set_tenant_tracking(w.num_tenants());
  rec.set_source(&w);
  return noc::run_until(
      net, &rec, [&net, &w] { return w.quiescent(net.core_time()); },
      params.cycle_limit);
}

TEST(ScenarioAcceptance, SingleTenantTraceBitIdenticalToDirectReplay) {
  const trace::Trace t = dnn_trace();

  // Direct replay: the trace workload drives the network itself.
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 42;
  noc::Network direct_net(p);
  trace::TraceWorkload direct(t);
  trace::TraceRecorder direct_rec(direct_net.num_nodes(), &direct);
  const noc::RunResult direct_result = noc::run_until(
      direct_net, &direct_rec, [&direct] { return direct.done(); }, 500000);
  ASSERT_TRUE(direct_result.completed);
  const std::uint64_t direct_hash = tenant_stream_hash(direct_rec.records());

  // The same replay expressed as a single-tenant .drlsc scenario, loaded
  // from disk like a user would.
  const std::string trace_path = ::testing::TempDir() + "scn_accept.drltrc";
  trace::TraceWriter::write_file(trace_path, t);
  const std::string scn_path = ::testing::TempDir() + "scn_accept.drlsc";
  {
    std::ofstream os(scn_path);
    os << "drlsc 1\n"
          "name = single\n"
          "width = 4\nheight = 4\nseed = 42\n"
          "tenants = 1\n"
          "tenant0.name = dnn\n"
          "tenant0.workload = trace\n"
          "tenant0.trace = scn_accept.drltrc\n";
  }
  const Scenario s = ScenarioReader::read_file(scn_path);
  auto net = build_network(s);
  auto w = build_workload(s, net->topology());
  ScenarioRunParams rp;
  rp.cycle_limit = 500000;
  trace::TraceRecorder rec(net->num_nodes());
  const noc::RunResult r = run_recorded(*net, *w, rec, rp);
  EXPECT_TRUE(r.completed);

  // The delivered-packet stream — ids, endpoints, lengths, timestamps,
  // hops, tenant tags — must match bit for bit.
  EXPECT_EQ(tenant_stream_hash(rec.records()), direct_hash);
}

TEST(CompositeWorkloadTest, AttributesTenantsAndRespectsWindows) {
  const Scenario s = mixed_scenario();
  auto net = build_network(s);
  auto w = build_workload(s, net->topology());
  trace::TraceRecorder rec(net->num_nodes());
  const noc::RunResult r = run_recorded(*net, *w, rec);
  ASSERT_TRUE(r.completed);

  const auto& records = rec.records();
  ASSERT_FALSE(records.empty());
  std::uint64_t dnn_count = 0, bg_count = 0;
  for (const noc::PacketRecord& rec : records) {
    if (rec.tenant == 0) {
      ++dnn_count;
    } else {
      ASSERT_EQ(rec.tenant, 1);
      ++bg_count;
      // The background window gates injection to [start, stop).
      EXPECT_GE(rec.inject_time, s.tenants[1].start);
      EXPECT_LT(rec.inject_time, s.tenants[1].stop);
    }
  }
  EXPECT_EQ(dnn_count, dnn_trace().records.size());
  EXPECT_GT(bg_count, 0u);

  // Per-tenant epoch slices partition the aggregate exactly.
  ASSERT_EQ(r.stats.tenants.size(), 2u);
  EXPECT_EQ(r.stats.tenants[0].packets_received +
                r.stats.tenants[1].packets_received,
            r.stats.packets_received);
  EXPECT_EQ(r.stats.tenants[0].packets_offered +
                r.stats.tenants[1].packets_offered,
            r.stats.packets_offered);
  EXPECT_EQ(r.stats.tenants[0].packets_received, dnn_count);
  EXPECT_GT(r.stats.tenants[0].avg_latency, 0.0);
  EXPECT_GT(r.stats.tenants[1].avg_latency, 0.0);
}

TEST(CompositeWorkloadTest, PlacementRemapsTraceEndpoints) {
  // A 4-endpoint chain placed on the far corner of the mesh: all of the
  // tenant's packets must travel between exactly those fabric nodes.
  trace::Trace t;
  t.nodes = 4;
  t.records = {{1, 0, 3, 0.0, 4, {}},
               {2, 3, 1, 2.0, 4, {1}},
               {3, 1, 2, 2.0, 4, {2}}};
  Scenario s;
  s.net.width = s.net.height = 4;
  s.net.seed = 5;
  TenantSpec ten;
  ten.name = "corner";
  ten.kind = WorkloadKind::kTrace;
  ten.trace = std::make_shared<const trace::Trace>(t);
  ten.nodes = {15, 14, 11, 10};  // placement order matters: local i -> [i]
  s.tenants.push_back(std::move(ten));

  auto net = build_network(s);
  auto w = build_workload(s, net->topology());
  trace::TraceRecorder rec(net->num_nodes());
  ASSERT_TRUE(run_recorded(*net, *w, rec).completed);
  const auto& records = rec.records();
  ASSERT_EQ(records.size(), 3u);
  // Local (0->3, 3->1, 1->2) under placement {15,14,11,10}.
  EXPECT_EQ(records[0].src, 15);
  EXPECT_EQ(records[0].dst, 10);
  EXPECT_EQ(records[1].src, 10);
  EXPECT_EQ(records[1].dst, 14);
  EXPECT_EQ(records[2].src, 14);
  EXPECT_EQ(records[2].dst, 11);
}

TEST(CompositeWorkloadTest, WindowShiftsTraceReleaseTimes) {
  // A trace tenant starting at t=500 releases its roots on the local clock:
  // a record stamped 10.0 injects at global 510.
  trace::Trace t;
  t.nodes = 16;
  t.records = {{1, 0, 5, 10.0, 4, {}}};
  Scenario s;
  s.net.width = s.net.height = 4;
  TenantSpec ten;
  ten.name = "late";
  ten.kind = WorkloadKind::kTrace;
  ten.trace = std::make_shared<const trace::Trace>(t);
  ten.start = 500.0;
  s.tenants.push_back(std::move(ten));
  auto net = build_network(s);
  auto w = build_workload(s, net->topology());
  trace::TraceRecorder rec(net->num_nodes());
  ASSERT_TRUE(run_recorded(*net, *w, rec).completed);
  const auto& records = rec.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].inject_time, 510.0);
}

TEST(CompositeWorkloadTest, TenantOrderBreaksSameTickTies) {
  // Two steady tenants on one node set: the lower tenant id wins every
  // contested injection slot, so the merge order is declaration order.
  Scenario s;
  s.net.width = s.net.height = 4;
  s.net.seed = 9;
  s.duration = 400.0;
  for (int i = 0; i < 2; ++i) {
    TenantSpec ten;
    ten.name = i == 0 ? "a" : "b";
    ten.kind = WorkloadKind::kSteady;
    ten.rate = 1.0;  // fire every tick: all slots contested
    ten.stop = 400.0;
    s.tenants.push_back(std::move(ten));
  }
  auto net = build_network(s);
  auto w = build_workload(s, net->topology());
  run_scenario(*net, *w);
  // Tenant 0 claimed every slot; tenant 1 never got polled into a win.
  EXPECT_GT(w->emitted(0), 0u);
  EXPECT_EQ(w->emitted(1), 0u);
}

// --- hook ordering across reconfiguration ----------------------------------

/// Wraps a steady workload and logs the injector hook sequence.
class RecordingInjector : public noc::TrafficInjector {
 public:
  explicit RecordingInjector(const noc::Topology& topo)
      : inner_(noc::SteadyWorkload::make(topo, "uniform", 0.10)) {}

  noc::NodeId generate(noc::NodeId src, double core_time,
                       util::Rng& rng) override {
    if (!enabled_) return noc::kInvalidNode;
    return inner_.generate(src, core_time, rng);
  }
  void on_packet_injected(noc::NodeId /*src*/, std::uint64_t packet_id,
                          double /*core_time*/) override {
    EXPECT_TRUE(injected_.insert(packet_id).second)
        << "packet " << packet_id << " injected twice";
  }
  void on_packet_delivered(const noc::PacketRecord& rec) override {
    EXPECT_TRUE(injected_.count(rec.packet_id))
        << "delivery hook for a packet that never passed injection";
    EXPECT_TRUE(delivered_.insert(rec.packet_id).second)
        << "packet " << rec.packet_id << " delivered twice";
    // Deliveries arrive in ejection order: core time never goes backwards.
    EXPECT_GE(rec.eject_time, last_eject_);
    last_eject_ = rec.eject_time;
  }
  std::string name() const override { return "recording"; }

  void stop_generating() { enabled_ = false; }
  std::size_t injected() const { return injected_.size(); }
  std::size_t delivered() const { return delivered_.size(); }

 private:
  noc::SteadyWorkload inner_;
  bool enabled_ = true;
  std::set<std::uint64_t> injected_;
  std::set<std::uint64_t> delivered_;
  double last_eject_ = 0.0;
};

TEST(InjectorHooks, OrderedAcrossReconfigurationEvents) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 21;
  noc::Network net(p);
  RecordingInjector inj(net.topology());

  // Reconfigure mid-flight repeatedly: shrink, slow, restore — the hook
  // contract (inject-before-deliver, ejection order, exactly-once) must
  // hold through every transition.
  const noc::NocConfig configs[] = {{2, 4, 2}, {1, 2, 1}, {4, 8, 3}};
  for (const noc::NocConfig& c : configs) {
    for (int i = 0; i < 400; ++i) net.step(&inj);
    net.apply_config(c);
  }
  // Stop generating but keep the injector attached while draining, so
  // every in-flight packet still reports its delivery.
  inj.stop_generating();
  for (int i = 0; i < 50000 && !net.drained(); ++i) net.step(&inj);
  ASSERT_TRUE(net.drained());

  EXPECT_EQ(inj.injected(), net.total_packets_offered());
  EXPECT_EQ(inj.delivered(), net.total_packets_received());
  EXPECT_EQ(inj.injected(), inj.delivered());  // nothing lost in reconfigs
}

TEST(CompositeWorkloadTest, IgnoresDeliveriesInjectedBeforeAttach) {
  // Warm-up traffic from a plain injector is still in flight when the
  // composite attaches. Its deliveries must reach neither the composite's
  // tenant counters nor the child (RecordingInjector fails the test on a
  // delivery it never saw injected).
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 8;
  noc::Network net(p);
  noc::SteadyWorkload warm =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.3);
  for (int i = 0; i < 300; ++i) net.step(&warm);
  const std::uint64_t warm_offered = net.total_packets_offered();
  ASSERT_GT(warm_offered, net.total_packets_received());

  std::vector<TenantBinding> bindings(1);
  auto child = std::make_unique<RecordingInjector>(net.topology());
  RecordingInjector& rec = *child;
  bindings[0].injector = std::move(child);
  CompositeWorkload composite(net.num_nodes(), std::move(bindings));
  for (int i = 0; i < 400; ++i) net.step(&composite);
  rec.stop_generating();
  for (int i = 0; i < 50000 && !net.drained(); ++i) net.step(&composite);
  ASSERT_TRUE(net.drained());

  EXPECT_GT(composite.emitted(0), 0u);
  EXPECT_EQ(composite.delivered(0), composite.emitted(0));
  EXPECT_EQ(rec.delivered(), rec.injected());
  EXPECT_EQ(rec.injected(), composite.emitted(0));
  // Every warm-up packet was delivered while the composite was attached.
  EXPECT_EQ(net.total_packets_received(),
            warm_offered + composite.emitted(0));
}

// --- determinism under the experiment engine -------------------------------

/// One full scenario run folded to a stream hash; seeds vary per task.
std::uint64_t scenario_run_hash(std::uint64_t seed) {
  Scenario s = mixed_scenario(seed);
  auto net = build_network(s);
  auto w = build_workload(s, net->topology());
  trace::TraceRecorder rec(net->num_nodes());
  const noc::RunResult r = run_recorded(*net, *w, rec);
  std::uint64_t h = tenant_stream_hash(rec.records());
  // Fold in the per-tenant accounting so attribution is pinned too.
  h ^= 0x9e3779b97f4a7c15ULL * (r.stats.tenants[0].packets_received + 1);
  h ^= 0xc2b2ae3d27d4eb4fULL * (r.stats.tenants[1].packets_received + 1);
  return h;
}

TEST(CompositeDeterminism, GoldenStreamHashInvariantAcrossThreads) {
  // Four scenario replays fanned over the experiment engine at 1/2/8
  // worker threads must produce one identical combined hash — and that
  // hash is pinned so composite merging cannot drift silently.
  std::uint64_t combined[3] = {};
  const int jobs_options[3] = {1, 2, 8};
  for (int k = 0; k < 3; ++k) {
    combined[k] = fold_words(util::parallel_map<std::uint64_t>(
        4, jobs_options[k], [](int i) {
          return scenario_run_hash(7 + static_cast<std::uint64_t>(i));
        }));
  }
  EXPECT_EQ(combined[0], combined[1]);
  EXPECT_EQ(combined[0], combined[2]);
  // Captured from the first composite-merge implementation; like the other
  // golden hashes this value only mixes +,-,*,/ arithmetic, so it is stable
  // across compilers and optimisation levels on IEEE-754 platforms.
  EXPECT_EQ(combined[0], 11117616280987195961ULL);
}

// --- RL environment wiring -------------------------------------------------

TEST(ScenarioEnv, EpisodesRunOnScenariosWithPerTenantStats) {
  auto s = std::make_shared<Scenario>(mixed_scenario());
  s->tenants[0].loop = true;  // keep every epoch fed
  s->tenants[1].stop = kInf;
  s->duration = 1e6;  // horizon for standalone runs; episodes bound RL use

  core::NocEnvParams ep;
  ep.scenario = s;
  ep.net.seed = 42;
  ep.epoch_cycles = 256;
  ep.epochs_per_episode = 4;
  core::NocConfigEnv env(ep);
  EXPECT_EQ(env.phased_workload(), nullptr);
  EXPECT_EQ(env.params().net.width, 4);  // fabric came from the scenario

  const rl::State s0 = env.reset();
  EXPECT_NE(env.composite_workload(), nullptr);  // built by reset()
  EXPECT_EQ(s0.size(), env.state_size());
  double traffic = 0.0;
  for (int a = 0; a < 3; ++a) {
    const rl::StepResult r = env.step(a % env.num_actions());
    EXPECT_EQ(r.next_state.size(), env.state_size());
    ASSERT_EQ(env.last_stats().tenants.size(), 2u);
    traffic += static_cast<double>(env.last_stats().packets_offered);
    EXPECT_EQ(env.last_stats().tenants[0].packets_offered +
                  env.last_stats().tenants[1].packets_offered,
              env.last_stats().packets_offered);
  }
  EXPECT_GT(traffic, 0.0);

  // evaluate() aggregates the per-tenant slices across epochs.
  auto ctrl = core::StaticController::maximal(env.actions());
  const core::EpisodeResult res = core::evaluate(env, *ctrl);
  ASSERT_EQ(res.tenants.size(), 2u);
  EXPECT_GT(res.tenants[0].packets_received, 0u);
  EXPECT_GT(res.tenants[1].packets_received, 0u);
  EXPECT_GT(res.tenants[0].mean_latency, 0.0);
  EXPECT_GT(res.tenants[0].p95_latency, 0.0);
  EXPECT_GT(res.tenants[1].accepted_rate, 0.0);
}

TEST(ScenarioEnv, RejectsTraceAndScenarioTogether) {
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.scenario = std::make_shared<Scenario>(mixed_scenario());
  ep.trace = std::make_shared<const trace::Trace>(dnn_trace());
  EXPECT_THROW(core::NocConfigEnv{ep}, std::invalid_argument);
}

TEST(ScenarioEnv, ReplicaSeedsChangeBackgroundTraffic) {
  // The evaluation protocol's seed stream must reach scenario episodes:
  // different net.seed => different synthetic background arrivals.
  auto s = std::make_shared<Scenario>(mixed_scenario());
  s->tenants[1].stop = kInf;
  s->duration = 1e6;
  const auto offered_with_seed = [&](std::uint64_t seed) {
    core::NocEnvParams ep;
    ep.scenario = s;
    ep.net.seed = seed;
    ep.epoch_cycles = 512;
    ep.epochs_per_episode = 2;
    core::NocConfigEnv env(ep);
    env.set_eval_mode(true);
    env.reset();
    return env.last_stats().tenants[1].packets_offered;
  };
  EXPECT_NE(offered_with_seed(42), offered_with_seed(43));
}

}  // namespace
}  // namespace drlnoc::scenario
