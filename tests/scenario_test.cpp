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
#include <map>
#include <memory>
#include <sstream>

#include "core/env_noc.h"
#include "core/trainer.h"
#include "golden_hash.h"
#include "hostile_corpus.h"
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

const std::string kMesh44 = "width = 4\nheight = 4\n";
const std::string kSteady = "tenant0.workload = steady\n";
const std::string kPhased =
    "tenant0.workload = phased\ntenant0.phases = 1\n"
    "tenant0.phase0.duration = 100\n";

/// Loads a one-tenant scenario (tenant "t") of fabric `size` and returns
/// the rejection message, or "accepted".
std::string traffic_rejection(const std::string& size,
                              const std::string& tenant) {
  std::string text = "drlsc 1\n";
  text += size;
  text += "duration = 100\ntenants = 1\ntenant0.name = t\n";
  text += tenant;
  try {
    ScenarioReader::read_text(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
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
  // validate builds each steady tenant's and each phase's pattern and
  // process, so traffic `run` would refuse, or silently clamp, fails at
  // load, naming the tenant and the phase.
  EXPECT_EQ(traffic_rejection(kMesh44, kSteady + "tenant0.pattern = nope\n"),
            "scenario: tenant 0 ('t'): unknown traffic pattern: nope");
  EXPECT_EQ(traffic_rejection("width = 3\nheight = 4\n",
                              kSteady + "tenant0.pattern = bitcomp\n"),
            "scenario: tenant 0 ('t'): bitcomp requires a power-of-two node "
            "count");
  EXPECT_EQ(traffic_rejection("width = 4\nheight = 3\n",
                              kPhased + "tenant0.phase0.pattern = transpose\n"),
            "scenario: tenant 0 ('t'): phase 0 transpose requires a square "
            "grid");
  EXPECT_EQ(traffic_rejection(kMesh44, kSteady + "tenant0.rate = 3\n"),
            "scenario: tenant 0 ('t'): rate must be within [0, 1] "
            "packets/cycle, got 3.000000");
  EXPECT_EQ(traffic_rejection(kMesh44, kPhased + "tenant0.phase0.rate = 3\n"),
            "scenario: tenant 0 ('t'): phase 0 rate must be within [0, 1] "
            "packets/cycle, got 3.000000");
  EXPECT_EQ(
      traffic_rejection(kMesh44, kPhased + "tenant0.phase0.process = onoff\n"),
      "scenario: tenant 0 ('t'): phase 0 unknown injection process: onoff");
}

TEST(ScenarioIo, RejectsBurstRatesAboveTheDutyCycle) {
  // A burst node is ON a fifth of the time, so 0.2 is the most it offers.
  const std::string burst = kSteady + "tenant0.process = burst\n";
  EXPECT_EQ(traffic_rejection(kMesh44, burst + "tenant0.rate = 0.9\n"),
            "scenario: tenant 0 ('t'): burst rate must be <= its duty cycle "
            "0.2 (the ON-state rate is rate / 0.2 and cannot exceed 1), got "
            "0.900000");
  EXPECT_EQ(traffic_rejection(kMesh44, burst + "tenant0.rate = 0.2\n"),
            "accepted");
  // Standard phases are checked at their scale: the burst phase runs at
  // 0.05 x phase_scale.
  const std::string standard = "tenant0.workload = phased\n";
  EXPECT_EQ(traffic_rejection(kMesh44, standard + "tenant0.phase_scale = 5\n"),
            "scenario: tenant 0 ('t'): phase 2 burst rate must be <= its "
            "duty cycle 0.2 (the ON-state rate is rate / 0.2 and cannot "
            "exceed 1), got 0.250000");
  EXPECT_EQ(traffic_rejection(kMesh44, standard + "tenant0.phase_scale = 4\n"),
            "accepted");
}

TEST(ScenarioIo, RejectsIllegalFabricAtLoadNamingTheKey) {
  // Line 8 is the appended fabric line.
  const std::string base =
      "drlsc 1\nwidth = 4\nheight = 4\nduration = 100\ntenants = 1\n"
      "tenant0.workload = steady\ntenant0.rate = 0.05\n";
  const auto rejection = [&](const std::string& line) -> std::string {
    try {
      ScenarioReader::read_text(base + line + "\n");
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(rejection("link_latency = 0"),
            "network: link_latency must be >= 1, got 0");
  EXPECT_EQ(rejection("link_latency = -1"),
            "bad integer for link_latency (line 8): -1 (expected a "
            "non-negative integer)");
  EXPECT_EQ(rejection("pipeline_stages = 0"),
            "network: pipeline_stages must be >= 1, got 0");
  EXPECT_EQ(rejection("pipeline_stages = -3"),
            "network: pipeline_stages must be >= 1, got -3");
  EXPECT_EQ(rejection("flits_per_packet = 0"),
            "network: flits_per_packet must be in [1, 65535], got 0");
  EXPECT_EQ(rejection("max_vcs = 33"),
            "network: max_vcs must be in [1, 32], got 33");
  EXPECT_EQ(rejection("seed = -1"),
            "bad integer for seed (line 8): -1 (expected a non-negative "
            "integer)");
  EXPECT_EQ(rejection("cycle_limit = -1"),
            "bad integer for cycle_limit (line 8): -1 (expected a "
            "non-negative integer)");
  // The largest seed round-trips instead of failing a signed parse.
  EXPECT_EQ(ScenarioReader::read_text(base + "seed = 18446744073709551615\n")
                .net.seed,
            18446744073709551615u);
}

TEST(ScenarioIo, RejectsPhaseFlitsOutsideSixteenBits) {
  const std::string base =
      "drlsc 1\nwidth = 4\nheight = 4\nduration = 100\ntenants = 1\n"
      "tenant0.name = burst\ntenant0.workload = phased\n"
      "tenant0.phases = 2\ntenant0.phase0.duration = 50\n"
      "tenant0.phase1.duration = 50\ntenant0.phase0.flits = 8\n";
  const auto rejection = [&](const std::string& flits) -> std::string {
    try {
      ScenarioReader::read_text(base + "tenant0.phase1.flits = " + flits +
                                "\n");
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(rejection("65540"),
            "scenario: tenant 0 ('burst'): phase 1 flits must be in "
            "[0, 65535] (0 = the network default), got 65540");
  EXPECT_EQ(rejection("-1"),
            "scenario: tenant 0 ('burst'): phase 1 flits must be in "
            "[0, 65535] (0 = the network default), got -1");
  EXPECT_EQ(rejection("0"), "accepted");
  EXPECT_EQ(rejection("65535"), "accepted");
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
  t.add({1, 0, 3, 0.0, 4});
  t.add({2, 3, 1, 2.0, 4}, {0});
  t.add({3, 1, 2, 2.0, 4}, {1});
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
    // Assigned from a temporary: the inlined assign(const char*) trips a
    // GCC 12 -Wrestrict false positive here.
    ten.name = std::string(i == 0 ? "a" : "b");
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

/// Wraps an injector, forwards every hook to it, and logs the sequence.
/// Deliveries of packets injected before the wrapper was attached are
/// counted as foreign.
class RecordingInjector : public noc::TrafficInjector {
 public:
  explicit RecordingInjector(noc::TrafficInjector& inner) : inner_(inner) {}

  noc::NodeId generate(noc::NodeId src, double core_time,
                       util::Rng& rng) override {
    if (!enabled_) return noc::kInvalidNode;
    return inner_.generate(src, core_time, rng);
  }
  int packet_length_for(noc::NodeId src, double core_time) const override {
    return inner_.packet_length_for(src, core_time);
  }
  int tenant_for(noc::NodeId src, double core_time) const override {
    return inner_.tenant_for(src, core_time);
  }
  void on_packet_injected(noc::NodeId src, std::uint64_t packet_id,
                          double core_time) override {
    EXPECT_TRUE(injected_.insert(packet_id).second)
        << "packet " << packet_id << " injected twice";
    inner_.on_packet_injected(src, packet_id, core_time);
  }
  void on_packet_delivered(const noc::PacketRecord& rec) override {
    // Deliveries arrive in ejection order: core time never goes backwards.
    EXPECT_GE(rec.eject_time, last_eject_);
    last_eject_ = rec.eject_time;
    inner_.on_packet_delivered(rec);
    if (!injected_.count(rec.packet_id)) {
      ++foreign_;
      return;
    }
    EXPECT_TRUE(delivered_.insert(rec.packet_id).second)
        << "packet " << rec.packet_id << " delivered twice";
  }
  std::string name() const override { return "recording"; }

  void stop_generating() { enabled_ = false; }
  std::size_t injected() const { return injected_.size(); }
  std::size_t delivered() const { return delivered_.size(); }
  std::size_t foreign() const { return foreign_; }

 private:
  noc::TrafficInjector& inner_;
  bool enabled_ = true;
  std::set<std::uint64_t> injected_;
  std::set<std::uint64_t> delivered_;
  std::size_t foreign_ = 0;
  double last_eject_ = 0.0;
};

TEST(InjectorHooks, OrderedAcrossReconfigurationEvents) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 21;
  noc::Network net(p);
  noc::SteadyWorkload w = noc::SteadyWorkload::make(net.topology(), "uniform",
                                                    0.10);
  RecordingInjector inj(w);

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
  EXPECT_EQ(inj.foreign(), 0u);  // no delivery skipped the injection hook
}

TEST(CompositeWorkloadTest, IgnoresDeliveriesInjectedBeforeAttach) {
  // Warm-up traffic from a plain injector is still in flight when the
  // composite attaches. Its deliveries reach the composite (the recorder
  // around it counts them as foreign) but not its tenant counters.
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 8;
  noc::Network net(p);
  noc::SteadyWorkload warm =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.3);
  for (int i = 0; i < 300; ++i) net.step(&warm);
  const std::uint64_t warm_offered = net.total_packets_offered();
  const std::uint64_t warm_in_flight =
      warm_offered - net.total_packets_received();
  ASSERT_GT(warm_in_flight, 0u);

  Scenario s;
  s.net = p;
  s.tenants.emplace_back().rate = 0.10;  // steady uniform, whole fabric
  const std::unique_ptr<CompositeWorkload> w =
      build_workload(s, net.topology());
  CompositeWorkload& composite = *w;
  RecordingInjector rec(composite);
  for (int i = 0; i < 400; ++i) net.step(&rec);
  rec.stop_generating();
  for (int i = 0; i < 50000 && !net.drained(); ++i) net.step(&rec);
  ASSERT_TRUE(net.drained());

  EXPECT_GT(composite.emitted(0), 0u);
  EXPECT_EQ(composite.delivered(0), composite.emitted(0));
  EXPECT_EQ(rec.delivered(), rec.injected());
  EXPECT_EQ(rec.injected(), composite.emitted(0));
  EXPECT_EQ(rec.foreign(), warm_in_flight);
  // Every warm-up packet was delivered while the composite was attached.
  EXPECT_EQ(net.total_packets_received(),
            warm_offered + composite.emitted(0));
}

// --- delivery routing --------------------------------------------------------

/// Wraps a composite and keeps its own packet -> tenant map, filled from
/// the tenant tags of each tick's emissions: an account of which tenant
/// owns each delivery and loss that does not rely on the records' tags.
class TenantOracle : public noc::TrafficInjector {
 public:
  explicit TenantOracle(CompositeWorkload& inner)
      : emitted(static_cast<std::size_t>(inner.num_tenants())),
        delivered(emitted.size()),
        lost(emitted.size()),
        inner_(inner) {}

  void inject_tick(double core_time, util::Rng* rngs, int n,
                   std::uint64_t first_id,
                   std::vector<noc::Emission>& out) override {
    inner_.inject_tick(core_time, rngs, n, first_id, out);
    for (std::size_t k = 0; k < out.size(); ++k) {
      owner_[first_id + k] = out[k].tenant;
      ++emitted[static_cast<std::size_t>(out[k].tenant)];
    }
  }
  noc::NodeId generate(noc::NodeId, double, util::Rng&) override {
    ADD_FAILURE() << "the network injects through inject_tick";
    return noc::kInvalidNode;
  }
  void on_packet_delivered(const noc::PacketRecord& rec) override {
    inner_.on_packet_delivered(rec);
    count(rec, delivered);
  }
  void on_packet_lost(const noc::PacketRecord& rec) override {
    inner_.on_packet_lost(rec);
    count(rec, lost);
  }
  std::string name() const override { return "oracle"; }

  std::vector<std::uint64_t> emitted, delivered, lost;
  std::uint64_t foreign = 0;  ///< deliveries of packets it never emitted

 private:
  void count(const noc::PacketRecord& rec, std::vector<std::uint64_t>& to) {
    const auto it = owner_.find(rec.packet_id);
    if (it == owner_.end()) {
      ++foreign;
      return;
    }
    ++to[static_cast<std::size_t>(it->second)];
    owner_.erase(it);
  }

  CompositeWorkload& inner_;
  std::map<std::uint64_t, int> owner_;
};

TEST(CompositeRouting, FaultedRunRoutesDeliveriesAndLossesByTenant) {
  // Three tenants on a lossy fabric: a remapped, windowed trace (so its
  // callbacks get local ids and clock), whole-fabric background and a
  // restricted hotspot source. Corrupted packets are retried once and
  // then lost. The composite's per-tenant counters and the trace child's
  // must agree with the oracle's per-packet account, and with the figures
  // the per-packet live table this routing replaced reported.
  Scenario s = mixed_scenario(7);
  s.tenants[0].start = 50.0;
  for (int i = 15; i >= 0; --i) s.tenants[0].nodes.push_back(i);
  s.tenants[1].stop = 5000.0;
  TenantSpec& hot = s.tenants.emplace_back();
  hot.name = "hot";
  hot.rate = 0.1;
  hot.stop = 5000.0;
  hot.nodes = {0, 5, 10, 15};
  s.faults.seed = 9;
  s.faults.link_fault_rate = 0.02;
  s.faults.retry_timeout = 32;
  s.faults.retry_budget = 1;
  s.validate();
  auto net = build_network(s);
  auto w = build_workload(s, net->topology());
  net->set_tenant_tracking(w->num_tenants());
  TenantOracle oracle(*w);
  for (int i = 0; i < 6000; ++i) net->step(&oracle);
  const noc::EpochStats st = net->drain_epoch_stats();

  ASSERT_GT(st.retries, 0u);
  ASSERT_GT(st.packets_lost, 0u);
  EXPECT_EQ(oracle.foreign, 0u);
  std::uint64_t lost = 0;
  for (int t = 0; t < 3; ++t) {
    const auto k = static_cast<std::size_t>(t);
    EXPECT_EQ(w->emitted(t), oracle.emitted[k]) << "tenant " << t;
    EXPECT_EQ(w->delivered(t), oracle.delivered[k]) << "tenant " << t;
    EXPECT_EQ(st.tenants[k].packets_lost, oracle.lost[k]) << "tenant " << t;
    lost += oracle.lost[k];
  }
  EXPECT_EQ(lost, st.packets_lost);
  const auto& dnn = std::get<trace::TraceWorkload>(w->tenant(0).workload);
  EXPECT_EQ(dnn.emitted(), oracle.emitted[0]);
  EXPECT_EQ(dnn.delivered(), oracle.delivered[0]);
  EXPECT_GT(oracle.lost[0], 0u);  // the trace child saw losses too

  // Figures of the table-routed composite on this run.
  EXPECT_EQ(oracle.emitted, (std::vector<std::uint64_t>{108, 3989, 1897}));
  EXPECT_EQ(oracle.delivered, (std::vector<std::uint64_t>{100, 3870, 1837}));
  EXPECT_EQ(oracle.lost, (std::vector<std::uint64_t>{8, 119, 60}));
  EXPECT_EQ(dnn.iterations(), 1u);
  EXPECT_FALSE(dnn.done());  // lost records never release their dependents
}

TEST(CompositeRouting, IgnoresPacketsInjectedBeforeItsFirstEmission) {
  // A warm-up composite tags its packets with tenants 0 and 1, ids the
  // second composite's tenants also use. The second one attaches while a
  // backlog of them is queued, but its tenants' windows open only later:
  // warm-up packets are delivered to it both before and after its first
  // emission, and none may count for its tenants.
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 12;
  p.initial_config = noc::NocConfig{1, 2, 0};
  Scenario warm_spec;
  warm_spec.net = p;
  for (int t = 0; t < 2; ++t) warm_spec.tenants.emplace_back().rate = 0.2;
  noc::Network net(p);
  auto warm = build_workload(warm_spec, net.topology());
  for (int i = 0; i < 300; ++i) net.step(warm.get());
  const std::uint64_t warm_offered = net.total_packets_offered();
  const std::uint64_t warm_left = warm_offered - net.total_packets_received();
  ASSERT_GT(warm_left, 200u);

  Scenario s = warm_spec;
  for (TenantSpec& t : s.tenants) {
    t.rate = 0.02;
    t.start = net.core_time() + 100.0;
    t.stop = net.core_time() + 600.0;
  }
  auto w = build_workload(s, net.topology());
  TenantOracle oracle(*w);
  const std::uint64_t received_at_attach = net.total_packets_received();
  while (w->emitted(0) + w->emitted(1) == 0) net.step(&oracle);
  const std::uint64_t before_first =
      net.total_packets_received() - received_at_attach;
  EXPECT_GT(before_first, 0u);
  for (int i = 0; i < 200000 && !(w->quiescent(net.core_time()) &&
                                  net.drained());
       ++i) {
    net.step(&oracle);
  }
  ASSERT_TRUE(net.drained());
  EXPECT_LT(before_first, warm_left);  // some arrived after it emitted
  EXPECT_EQ(oracle.foreign, warm_left);
  for (int t = 0; t < 2; ++t) {
    EXPECT_GT(w->emitted(t), 0u);
    EXPECT_EQ(w->delivered(t), w->emitted(t)) << "tenant " << t;
  }
  EXPECT_EQ(net.total_packets_received(),
            warm_offered + w->emitted(0) + w->emitted(1));

  // A delivery past its first emission naming a tenant it lacks breaks
  // the one-injector contract and is refused.
  noc::PacketRecord stray;
  stray.packet_id = net.total_packets_offered();
  stray.tenant = 2;
  EXPECT_THROW(w->on_packet_delivered(stray), std::logic_error);
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
  EXPECT_EQ(env.workload(), nullptr);
  EXPECT_EQ(env.params().net.width, 4);  // fabric came from the scenario

  const rl::State s0 = env.reset();
  EXPECT_NE(env.workload(), nullptr);  // built by reset()
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

TEST(PhasedEnv, EpisodesMatchThePinnedPhasedEnvironment) {
  // Pinned from the environment's former built-in phased mode, which drove
  // a bare PhasedWorkload: the one-tenant phased scenario must reproduce a
  // training episode (random phase start), an evaluation episode (phase 0)
  // and the calibrated power reference bit for bit.
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.net.seed = 19;
  ep.scenario = std::make_shared<Scenario>(
      phased_scenario(ep.net, {{"uniform", 0.01, 1500.0, "bernoulli"},
                               {"hotspot", 0.05, 1500.0, "burst", 2},
                               {"transpose", 0.07, 1500.0, "bernoulli"}}));
  ep.epoch_cycles = 256;
  ep.epochs_per_episode = 6;
  core::NocConfigEnv env(ep);
  GoldenHash h;
  h.mix(env.power_ref_mw());
  for (int episode = 0; episode < 2; ++episode) {
    env.set_eval_mode(episode == 1);
    for (double v : env.reset()) h.mix(v);
    bool done = false;
    for (int k = 0; !done; ++k) {
      const rl::StepResult r = env.step((7 * k + episode) % env.num_actions());
      for (double v : r.next_state) h.mix(v);
      h.mix(r.reward);
      mix_stats(h, env.last_stats());
      done = r.done;
    }
  }
  EXPECT_EQ(env.power_ref_mw(), 0x1.0080c9539b888p+9);
  EXPECT_EQ(h.value(), 0x75fde1b4e474876fULL);
}

TEST(PhasedEnv, PhasedTenantsStartAtRandomInTrainingAndAtPhaseZeroInEval) {
  // A phased tenant next to a steady one: training episode g starts it at
  // the fraction drawn from its traffic seed, evaluation at phase 0.
  auto s = std::make_shared<Scenario>();
  s->net.width = s->net.height = 4;
  s->duration = 1e6;
  TenantSpec steady;
  steady.name = "steady";
  steady.rate = 0.02;
  s->tenants.push_back(steady);
  TenantSpec phased;
  phased.name = "phased";
  phased.kind = WorkloadKind::kPhased;
  for (int i = 0; i < 8; ++i) {
    phased.phases.push_back({"uniform", 0.01 * (i + 1), 1000.0, "bernoulli"});
  }
  s->tenants.push_back(phased);
  core::NocEnvParams ep;
  ep.scenario = s;
  ep.net.seed = 23;
  ep.epoch_cycles = 64;
  ep.epochs_per_episode = 1;
  core::NocConfigEnv env(ep);
  const auto phase_at_zero = [&env] {
    const auto* w =
        std::get_if<noc::PhasedWorkload>(&env.workload()->tenant(1).workload);
    EXPECT_NE(w, nullptr);
    return w == nullptr ? std::size_t{0} : w->phase_index(0.0);
  };

  noc::PhasedWorkload reference(noc::make_topology("mesh", 4, 4),
                                phased.phases);
  bool moved = false;
  for (int g = 1; g <= 6; ++g) {
    env.reset();  // training episode g
    const std::uint64_t seed =
        23 + 0x9e3779b9ULL * static_cast<std::uint64_t>(g);
    const double u = util::Rng(seed ^ 0xabcdef123456ULL).uniform();
    reference.set_start_offset(u * reference.total_duration());
    EXPECT_EQ(phase_at_zero(), reference.phase_index(0.0)) << "episode " << g;
    moved = moved || phase_at_zero() != 0;
  }
  EXPECT_TRUE(moved) << "no training episode left phase 0";

  env.set_eval_mode(true);
  for (int i = 0; i < 3; ++i) {
    env.reset();
    EXPECT_EQ(phase_at_zero(), 0u);
  }
}

// --- hostile input ------------------------------------------------------------

/// A `.drlsc` file that exercises every part of the format: a trace tenant
/// (its trace written next to the scenario) and a synthetic one, plus the
/// [controller], [faults] and [churn] sections.
std::string hostile_base_scenario(const std::string& dir) {
  trace::TraceWriter::write_file(
      dir + "hostile_tenant.drltrc",
      trace::generate_dnn_pipeline({16, 3, 4, 2, 64.0, 32.0, 8}));
  return "drlsc 1\n"
         "name = hostile_base\n"
         "topology = mesh\n"
         "width = 4\n"
         "height = 4\n"
         "seed = 7\n"
         "duration = 20000\n"
         "tenants = 2\n"
         "tenant0.name = dnn\n"
         "tenant0.workload = trace\n"
         "tenant0.trace = hostile_tenant.drltrc\n"
         "tenant0.loop = 1\n"
         "tenant0.nodes = 0-15\n"
         "tenant0.qos = latency_critical\n"
         "tenant0.p95_target = 300\n"
         "tenant1.name = background\n"
         "tenant1.workload = steady\n"
         "tenant1.pattern = uniform\n"
         "tenant1.rate = 0.04\n"
         "tenant1.stop = 15000\n"
         "tenant1.qos = background\n"
         "\n[controller]\n"
         "type = heuristic\n"
         "epoch_cycles = 256\n"
         "epochs = 4\n"
         "\n[faults]\n"
         "seed = 3\n"
         "link_fault_rate = 0.001\n"
         "retry_timeout = 32\n"
         "retry_budget = 4\n"
         "events = 1\n"
         "event0.kind = link_down\n"
         "event0.at_cycle = 100\n"
         "event0.node = 5\n"
         "event0.port = 1\n"
         "\n[churn]\n"
         "seed = 11\n"
         "arrival_rate = 0.0001\n"
         "capacity = 3\n"
         "max_arrivals = 64\n"
         "templates = 1\n"
         "template0.tenant = 1\n"
         "template0.lifetime = exponential\n"
         "template0.lifetime_mean = 4000\n";
}

TEST(ScenarioHostileInput, TextCorpus) {
  const std::string dir = ::testing::TempDir();
  const std::string base = hostile_base_scenario(dir);
  const Scenario intact = ScenarioReader::read_text(base, dir);
  ASSERT_EQ(intact.tenants.front().kind, WorkloadKind::kTrace);
  ASSERT_TRUE(intact.controller.scheduled());
  ASSERT_TRUE(intact.faults.enabled());
  ASSERT_TRUE(intact.churn.enabled());

  const std::string path = dir + "hostile.drlsc";
  int loaded = 0;
  int rejected = 0;
  for (const std::string& input : text_corpus(base, 2028)) {
    const bool ok = loads_or_names_path(path, input, [](const std::string& p) {
      // A loaded scenario is valid and serialises.
      std::ostringstream os;
      ScenarioWriter::write_text(os, ScenarioReader::read_file(p));
    });
    (ok ? loaded : rejected) += 1;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);

  // Each of these counts would otherwise build two billion blocks.
  for (const std::string key :
       {"tenants", "events", "templates", "max_arrivals"}) {
    std::string text = base;
    const std::size_t at = text.find("\n" + key + " = ") + key.size() + 4;
    text.replace(at, text.find('\n', at) - at, "2000000000");
    try {
      ScenarioReader::read_text(text, dir);
      ADD_FAILURE() << key << " = 2000000000 accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace drlnoc::scenario
