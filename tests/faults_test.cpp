// Fault-injection subsystem tests: parameter/scenario validation messages,
// `.drlsc` [faults] round-trips, the retry/backoff/budget state machine,
// minimal-path rerouting around dead links (with conservation: nothing is
// lost beyond the retry budget), and determinism — a faulted run is
// bit-identical across repeated runs and experiment-thread counts, and a
// build with faults *disabled* must not perturb the healthy-path goldens.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>

#include "golden_hash.h"
#include "core/controller.h"
#include "core/parallel.h"
#include "noc/faults.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "scenario/composite_workload.h"
#include "scenario/runtime.h"
#include "scenario/scenario.h"
#include "scenario/scenario_io.h"

namespace drlnoc {
namespace {

void mix_fault_stats(GoldenHash& h, const noc::EpochStats& s) {
  h.mix(s.packets_offered);
  h.mix(s.packets_received);
  h.mix(s.flits_injected);
  h.mix(s.flits_ejected);
  h.mix(s.avg_latency);
  h.mix(s.p95_latency);
  h.mix(s.max_latency);
  h.mix(s.avg_hops);
  h.mix(s.flits_dropped);
  h.mix(s.retries);
  h.mix(s.packets_lost);
  h.mix(s.retry_latency);
  h.mix(s.rerouted_hops);
}

template <typename Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// --- parameter validation ---------------------------------------------------

TEST(FaultParams, ValidationMessages) {
  noc::FaultParams bad_rate;
  bad_rate.link_fault_rate = 1.5;
  EXPECT_EQ(rejection([&] { bad_rate.validate(); }),
            "faults: link_fault_rate must be finite in [0, 1]");

  noc::FaultParams bad_timeout;
  bad_timeout.retry_timeout = 0;
  EXPECT_EQ(rejection([&] { bad_timeout.validate(); }),
            "faults: retry_timeout must be >= 1");

  noc::FaultParams bad_backoff;
  bad_backoff.retry_backoff = 0.5;
  EXPECT_EQ(rejection([&] { bad_backoff.validate(); }),
            "faults: retry_backoff must be finite and >= 1");

  noc::FaultParams bad_budget;
  bad_budget.retry_budget = -1;
  EXPECT_EQ(rejection([&] { bad_budget.validate(); }),
            "faults: retry_budget must be >= 0");

  noc::FaultParams bad_factor;
  noc::FaultEvent slow;
  slow.kind = noc::FaultEvent::Kind::kSlowdown;
  slow.factor = 0;
  bad_factor.events = {slow};
  EXPECT_EQ(rejection([&] { bad_factor.validate(); }),
            "faults: event0: slowdown factor must be >= 1");
}

TEST(FaultParams, TopologyValidation) {
  const auto topo = noc::make_topology("mesh", 4, 4);

  noc::FaultParams bad_node;
  noc::FaultEvent ev;
  ev.kind = noc::FaultEvent::Kind::kLinkDown;
  ev.node = 16;  // mesh has nodes 0..15
  ev.port = 1;
  bad_node.events = {ev};
  EXPECT_NO_THROW(bad_node.validate());  // needs the topology to know
  EXPECT_NE(rejection([&] { bad_node.validate(*topo); }).find("node outside"),
            std::string::npos);

  noc::FaultParams bad_port;
  ev.node = 3;   // north-east corner: no east neighbor
  ev.port = 1;   // east
  bad_port.events = {ev};
  EXPECT_NE(rejection([&] {
              bad_port.validate(*topo);
            }).find("port is not a connected link"),
            std::string::npos);

  // Killing both directions around node 0 at cycle 0 disconnects it; the
  // config is rejected up front instead of mid-run.
  noc::FaultParams disconnect;
  noc::FaultEvent east;
  east.kind = noc::FaultEvent::Kind::kLinkDown;
  east.at_cycle = 0;
  east.node = 0;
  east.port = 1;  // 0 -> 1
  noc::FaultEvent north;
  north.kind = noc::FaultEvent::Kind::kLinkDown;
  north.at_cycle = 0;
  north.node = 0;
  north.port = 3;  // 0 -> 4 (north)
  disconnect.events = {east, north};
  const std::string msg = rejection([&] { disconnect.validate(*topo); });
  EXPECT_NE(msg.find("cycle-0 events reject"), std::string::npos) << msg;
  EXPECT_NE(msg.find("disconnect"), std::string::npos) << msg;
}

// --- retry state machine ----------------------------------------------------

TEST(FaultModel, RetryBackoffAndBudget) {
  const auto topo = noc::make_topology("mesh", 4, 4);
  noc::FaultParams fp;
  fp.link_fault_rate = 0.01;  // enabled; the hash path is not used here
  fp.retry_timeout = 10;
  fp.retry_backoff = 2.0;
  fp.retry_budget = 3;
  noc::FaultModel model(fp, *topo);

  noc::PacketRecord rec;
  rec.packet_id = 77;
  rec.src = 0;
  rec.dst = 5;
  rec.length = 4;
  rec.corrupted = true;

  // Attempt 1: due at 100 + 10 * 2^0.
  EXPECT_EQ(model.on_corrupt_delivery(rec, 100),
            noc::FaultModel::RetryVerdict::kRetryScheduled);
  EXPECT_TRUE(model.retries_pending());
  EXPECT_EQ(model.next_retry_due(), 110u);
  noc::FaultModel::Retry r;
  EXPECT_FALSE(model.pop_due_retry(109, r));
  ASSERT_TRUE(model.pop_due_retry(110, r));
  EXPECT_EQ(r.packet_id, 77u);
  EXPECT_EQ(r.src, 0);
  EXPECT_EQ(model.attempts_of(77), 1);

  // Attempt 2: backoff doubles the delay (10 * 2^1 = 20).
  EXPECT_EQ(model.on_corrupt_delivery(rec, 150),
            noc::FaultModel::RetryVerdict::kRetryScheduled);
  EXPECT_EQ(model.next_retry_due(), 170u);
  ASSERT_TRUE(model.pop_due_retry(170, r));

  // Attempt 3: 10 * 2^2 = 40.
  EXPECT_EQ(model.on_corrupt_delivery(rec, 200),
            noc::FaultModel::RetryVerdict::kRetryScheduled);
  EXPECT_EQ(model.next_retry_due(), 240u);
  ASSERT_TRUE(model.pop_due_retry(240, r));

  // Budget of 3 exhausted: the fourth corruption loses the packet and drops
  // its bookkeeping.
  EXPECT_EQ(model.on_corrupt_delivery(rec, 300),
            noc::FaultModel::RetryVerdict::kLost);
  EXPECT_FALSE(model.retries_pending());
  EXPECT_EQ(model.attempts_of(77), 0);
}

TEST(FaultModel, CleanDeliveryForgetsAttempts) {
  const auto topo = noc::make_topology("mesh", 4, 4);
  noc::FaultParams fp;
  fp.link_fault_rate = 0.01;
  fp.retry_budget = 1;
  noc::FaultModel model(fp, *topo);

  noc::PacketRecord rec;
  rec.packet_id = 9;
  rec.corrupted = true;
  rec.src = 0;
  rec.dst = 1;
  EXPECT_EQ(model.on_corrupt_delivery(rec, 0),
            noc::FaultModel::RetryVerdict::kRetryScheduled);
  EXPECT_EQ(model.attempts_of(9), 1);
  model.forget(9);  // the retry delivered clean
  EXPECT_EQ(model.attempts_of(9), 0);
  // A later corruption of a *reused* id starts from a fresh budget.
  EXPECT_EQ(model.on_corrupt_delivery(rec, 500),
            noc::FaultModel::RetryVerdict::kRetryScheduled);
}

// Deterministic corruption: pure hash of (seed, link, cycle, packet, seq) —
// same inputs, same verdict; different seeds decorrelate.
TEST(FaultModel, CorruptionHashIsDeterministic) {
  const auto topo = noc::make_topology("mesh", 4, 4);
  noc::FaultParams fp;
  fp.seed = 123;
  fp.link_fault_rate = 0.3;
  noc::FaultModel a(fp, *topo);
  noc::FaultModel b(fp, *topo);
  fp.seed = 124;
  noc::FaultModel c(fp, *topo);

  noc::Flit f;
  int differ = 0;
  for (std::uint64_t pkt = 1; pkt <= 200; ++pkt) {
    f.packet_id = pkt;
    f.seq = static_cast<int>(pkt % 5);
    const bool va = a.corrupt_on_link(5, 1, f, 1000 + pkt);
    EXPECT_EQ(va, b.corrupt_on_link(5, 1, f, 1000 + pkt));
    if (va != c.corrupt_on_link(5, 1, f, 1000 + pkt)) ++differ;
  }
  EXPECT_GT(differ, 0);  // a different seed must change the fault pattern
}

// --- rerouting around dead links --------------------------------------------

// A permanent link failure on an otherwise fault-free fabric: every packet
// still delivers (conservation), detours show up as rerouted_hops, and no
// retry machinery engages.
TEST(FaultRouting, PermanentLinkFailureReroutesWithoutLoss) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 21;
  noc::Network net(p);

  noc::FaultParams fp;
  noc::FaultEvent ev;
  ev.kind = noc::FaultEvent::Kind::kLinkDown;
  ev.at_cycle = 0;
  ev.node = 5;
  ev.port = 1;  // 5 -> 6, on many XY minimal paths
  fp.events = {ev};
  net.set_fault_model(fp);

  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.10);
  noc::EpochStats total = net.run_epoch(&w, 2000);
  int guard = 0;
  while (!net.drained() && ++guard < 10000) net.step(nullptr);
  ASSERT_TRUE(net.drained());
  const noc::EpochStats tail = net.drain_epoch_stats();

  const std::uint64_t offered = total.packets_offered + tail.packets_offered;
  const std::uint64_t received =
      total.packets_received + tail.packets_received;
  EXPECT_GT(offered, 0u);
  EXPECT_EQ(received, offered);  // nothing lost: reroute, don't drop
  EXPECT_GT(total.rerouted_hops + tail.rerouted_hops, 0u);
  EXPECT_EQ(total.retries + tail.retries, 0u);
  EXPECT_EQ(total.packets_lost + tail.packets_lost, 0u);
  EXPECT_EQ(total.flits_dropped + tail.flits_dropped, 0u);
}

// Transient corruption end-to-end: dropped flits are retried and, within
// budget, eventually deliver — offered packets are conserved as
// received + lost, and losses can only happen after budget retries.
TEST(FaultRouting, TransientFaultsConservePackets) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 33;
  noc::Network net(p);

  noc::FaultParams fp;
  fp.seed = 9;
  fp.link_fault_rate = 0.02;
  fp.retry_timeout = 32;
  fp.retry_budget = 6;
  net.set_fault_model(fp);

  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.08);
  noc::EpochStats total = net.run_epoch(&w, 3000);
  int guard = 0;
  while (!net.drained() && ++guard < 50000) net.step(nullptr);
  ASSERT_TRUE(net.drained());
  const noc::EpochStats tail = net.drain_epoch_stats();

  const std::uint64_t offered = total.packets_offered + tail.packets_offered;
  const std::uint64_t received =
      total.packets_received + tail.packets_received;
  const std::uint64_t lost = total.packets_lost + tail.packets_lost;
  EXPECT_GT(offered, 0u);
  EXPECT_GT(total.retries + tail.retries, 0u);
  EXPECT_GT(total.flits_dropped + tail.flits_dropped, 0u);
  EXPECT_EQ(received + lost, offered);
}

// --- determinism ------------------------------------------------------------

noc::EpochStats faulted_run(int seed_offset) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 42 + static_cast<std::uint64_t>(seed_offset);
  noc::Network net(p);
  noc::FaultParams fp;
  fp.seed = 5;
  fp.link_fault_rate = 0.01;
  fp.retry_timeout = 24;
  noc::FaultEvent down;
  down.kind = noc::FaultEvent::Kind::kLinkDown;
  down.at_cycle = 500;
  down.node = 9;
  down.port = 2;  // 9 -> 8
  noc::FaultEvent slow;
  slow.kind = noc::FaultEvent::Kind::kSlowdown;
  slow.at_cycle = 800;
  slow.node = 6;
  slow.factor = 3;
  fp.events = {down, slow};
  net.set_fault_model(fp);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.09);
  noc::EpochStats s = net.run_epoch(&w, 2000);
  int guard = 0;
  while (!net.drained() && ++guard < 50000) net.step(nullptr);
  const noc::EpochStats tail = net.drain_epoch_stats();
  s.rerouted_hops += tail.rerouted_hops;
  s.retries += tail.retries;
  s.packets_lost += tail.packets_lost;
  s.packets_received += tail.packets_received;
  return s;
}

// A faulted run (transient corruption + a mid-run link death + a slowdown)
// is bit-identical on repeated runs: no hidden RNG stream, no global state.
TEST(FaultDeterminism, RepeatedFaultedRunsAreBitIdentical) {
  GoldenHash a, b;
  mix_fault_stats(a, faulted_run(0));
  mix_fault_stats(b, faulted_run(0));
  EXPECT_EQ(a.value(), b.value());

  GoldenHash c;
  mix_fault_stats(c, faulted_run(1));  // different traffic seed must differ
  EXPECT_NE(a.value(), c.value());
}

// Faulted evaluation is bit-identical at any experiment-thread count: each
// replica builds its own Network + FaultModel from the same scenario, so
// thread scheduling cannot reorder any fault decision.
TEST(FaultDeterminism, FaultedEvaluationBitIdenticalAcrossJobs) {
  auto scn = std::make_shared<scenario::Scenario>();
  scn->name = "faulted_jobs";
  scn->net.width = scn->net.height = 4;
  scn->net.seed = 3;
  scn->duration = 1500;
  scenario::TenantSpec t;
  t.name = "uniform";
  t.kind = scenario::WorkloadKind::kSteady;
  t.pattern = "uniform";
  t.rate = 0.08;
  t.stop = 1500.0;
  scn->tenants = {t};
  scn->faults.seed = 11;
  scn->faults.link_fault_rate = 0.01;
  scn->faults.retry_timeout = 32;

  core::NocEnvParams ep;
  ep.scenario = scn;
  ep.net.seed = scn->net.seed;
  ep.epoch_cycles = 500;
  ep.epochs_per_episode = 3;

  const core::ControllerFactory heuristic =
      [&](const core::NocConfigEnv& env) {
        core::HeuristicParams hp;
        hp.num_nodes = 16;
        return std::make_unique<core::HeuristicController>(env.actions(), hp);
      };

  std::vector<std::uint64_t> hashes;
  for (int jobs : {1, 2, 8}) {
    const core::ReplicationResult r = core::evaluate_many(
        ep, heuristic, /*replicas=*/4, core::ExperimentRunner(jobs));
    GoldenHash h;
    for (const core::Replica& rep : r.replicas) {
      h.mix(rep.seed);
      h.mix(rep.result.total_reward);
      h.mix(rep.result.mean_latency);
      h.mix(rep.result.flits_dropped);
      h.mix(rep.result.retries);
      h.mix(rep.result.packets_lost);
      h.mix(rep.result.rerouted_hops);
    }
    hashes.push_back(h.value());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

// Golden pin for the faulted fabric itself: repeated-run identity above
// proves stability, this value pins it against future refactors (captured
// from the first fault-layer build).
constexpr std::uint64_t kFaultedGolden = 6244405601593279142ULL;

TEST(FaultDeterminism, FaultedRunGoldenHash) {
  GoldenHash h;
  mix_fault_stats(h, faulted_run(0));
  EXPECT_EQ(h.value(), kFaultedGolden);
}

// --- scenario [faults] IO ---------------------------------------------------

scenario::Scenario faulted_scenario() {
  scenario::Scenario s;
  s.name = "faulty";
  s.net.width = s.net.height = 4;
  s.net.seed = 5;
  s.duration = 2000;
  scenario::TenantSpec t;
  t.name = "uni";
  t.kind = scenario::WorkloadKind::kSteady;
  t.pattern = "uniform";
  t.rate = 0.05;
  t.stop = 2000.0;
  s.tenants = {t};
  s.faults.seed = 77;
  s.faults.link_fault_rate = 0.015;
  s.faults.retry_timeout = 48;
  s.faults.retry_backoff = 1.5;
  s.faults.retry_budget = 5;
  noc::FaultEvent down;
  down.kind = noc::FaultEvent::Kind::kLinkDown;
  down.at_cycle = 700;
  down.node = 5;
  down.port = 1;
  noc::FaultEvent slow;
  slow.kind = noc::FaultEvent::Kind::kSlowdown;
  slow.at_cycle = 900;
  slow.node = 2;
  slow.factor = 4;
  s.faults.events = {down, slow};
  return s;
}

TEST(ScenarioFaults, WriteReadRoundTrips) {
  const scenario::Scenario s = faulted_scenario();
  std::ostringstream os;
  scenario::ScenarioWriter::write_text(os, s);
  EXPECT_NE(os.str().find("[faults]"), std::string::npos);

  const scenario::Scenario back = scenario::ScenarioReader::read_text(os.str());
  EXPECT_EQ(back.faults.seed, 77u);
  EXPECT_DOUBLE_EQ(back.faults.link_fault_rate, 0.015);
  EXPECT_EQ(back.faults.retry_timeout, 48u);
  EXPECT_DOUBLE_EQ(back.faults.retry_backoff, 1.5);
  EXPECT_EQ(back.faults.retry_budget, 5);
  ASSERT_EQ(back.faults.events.size(), 2u);
  EXPECT_EQ(back.faults.events[0].kind, noc::FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(back.faults.events[0].at_cycle, 700u);
  EXPECT_EQ(back.faults.events[0].node, 5);
  EXPECT_EQ(back.faults.events[0].port, 1);
  EXPECT_EQ(back.faults.events[1].kind, noc::FaultEvent::Kind::kSlowdown);
  EXPECT_EQ(back.faults.events[1].factor, 4);
}

TEST(ScenarioFaults, FaultFreeScenarioSerialisesWithoutFaultsBlock) {
  scenario::Scenario s = faulted_scenario();
  s.faults = noc::FaultParams{};
  std::ostringstream os;
  scenario::ScenarioWriter::write_text(os, s);
  EXPECT_EQ(os.str().find("[faults]"), std::string::npos);
}

TEST(ScenarioFaults, ParserRejectionMessages) {
  const std::string base =
      "drlsc 1\nwidth = 4\nheight = 4\nduration = 1000\n"
      "tenants = 1\ntenant0.workload = steady\ntenant0.rate = 0.05\n"
      "tenant0.stop = 1000\n";

  EXPECT_EQ(rejection([&] {
              scenario::ScenarioReader::read_text(
                  base + "[faults]\nretry_timeout = 0\n");
            }),
            "scenario: faults.retry_timeout must be >= 1, got 0");

  EXPECT_EQ(rejection([&] {
              scenario::ScenarioReader::read_text(
                  base + "[faults]\nevents = 1\nevent0.kind = melt\n");
            }),
            "scenario: faults.event0.kind must be link_down|slowdown, got "
            "'melt'");

  EXPECT_EQ(rejection([&] {
              scenario::ScenarioReader::read_text(
                  base + "[faults]\nlink_fault_rate = 0.1\n"
                         "[faults]\nlink_fault_rate = 0.2\n");
            }),
            "scenario: duplicate [faults] block (line 11)");

  // Unknown keys inside [faults] are rejected, not ignored.
  EXPECT_NE(rejection([&] {
              scenario::ScenarioReader::read_text(
                  base + "[faults]\nlink_fault_rte = 0.1\n");
            }).find("link_fault_rte"),
            std::string::npos);

  // Strict numeric parsing applies inside the section too.
  EXPECT_NE(rejection([&] {
              scenario::ScenarioReader::read_text(
                  base + "[faults]\nlink_fault_rate = 0.1x\n");
            }).find("trailing characters"),
            std::string::npos);

  // Out-of-range rate flows through FaultParams::validate.
  EXPECT_EQ(rejection([&] {
              scenario::ScenarioReader::read_text(
                  base + "[faults]\nlink_fault_rate = 2.0\n");
            }),
            "faults: link_fault_rate must be finite in [0, 1]");
}

TEST(ScenarioFaults, ValidateRejectsDisconnectingCycleZeroEvents) {
  scenario::Scenario s = faulted_scenario();
  s.faults.events.clear();
  noc::FaultEvent east;
  east.kind = noc::FaultEvent::Kind::kLinkDown;
  east.at_cycle = 0;
  east.node = 0;
  east.port = 1;
  noc::FaultEvent north;
  north.kind = noc::FaultEvent::Kind::kLinkDown;
  north.at_cycle = 0;
  north.node = 0;
  north.port = 3;  // 0 -> 4 (north)
  s.faults.events = {east, north};
  const std::string msg = rejection([&] { s.validate(); });
  EXPECT_NE(msg.find("cycle-0 events reject"), std::string::npos) << msg;

  // The same events at a later cycle pass static validation (the run itself
  // will then fail loudly at the event) — only time-0 is checked up front.
  s.faults.events[0].at_cycle = 100;
  s.faults.events[1].at_cycle = 100;
  EXPECT_NO_THROW(s.validate());
}

// A scenario run with scripted faults completes and reports fault metrics.
TEST(ScenarioFaults, ScriptedFaultsFlowIntoRunMetrics) {
  scenario::Scenario s = faulted_scenario();
  const noc::RunResult r = scenario::run_scenario(s);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.stats.packets_offered, 0u);
  EXPECT_GT(r.stats.retries + r.stats.flits_dropped, 0u);
  EXPECT_GT(r.stats.rerouted_hops, 0u);  // the cycle-700 link death detours
  ASSERT_EQ(r.stats.tenants.size(), 1u);
  EXPECT_EQ(r.stats.tenants[0].packets_received + r.stats.packets_lost,
            r.stats.tenants[0].packets_offered);
}

/// Uniform traffic that records which of its packets the network reports
/// delivered and which lost.
class OutcomeInjector : public noc::TrafficInjector {
 public:
  explicit OutcomeInjector(const noc::Topology& topo)
      : inner_(noc::SteadyWorkload::make(topo, "uniform", 0.09)) {}

  noc::NodeId generate(noc::NodeId src, double core_time,
                       util::Rng& rng) override {
    return generating_ ? inner_.generate(src, core_time, rng)
                       : noc::kInvalidNode;
  }
  void on_packet_injected(noc::NodeId /*src*/, std::uint64_t packet_id,
                          double /*core_time*/) override {
    injected_.insert(packet_id);
  }
  void on_packet_delivered(const noc::PacketRecord& rec) override {
    EXPECT_TRUE(delivered_.insert(rec.packet_id).second);
  }
  void on_packet_lost(const noc::PacketRecord& rec) override {
    EXPECT_TRUE(lost_.insert(rec.packet_id).second)
        << "packet " << rec.packet_id << " reported lost twice";
    EXPECT_TRUE(rec.corrupted);
  }
  std::string name() const override { return "outcome"; }

  void stop() { generating_ = false; }
  const std::set<std::uint64_t>& injected() const { return injected_; }
  const std::set<std::uint64_t>& delivered() const { return delivered_; }
  const std::set<std::uint64_t>& lost() const { return lost_; }

 private:
  noc::SteadyWorkload inner_;
  bool generating_ = true;
  std::set<std::uint64_t> injected_, delivered_, lost_;
};

// Tenant slices partition the aggregate under faults: with two tenants,
// transient corruption, a mid-run link death and a slowdown, the per-tenant
// counters of one whole-run window sum to the aggregate. Flits are the one
// asymmetric field: the aggregate counts every ejected flit at the NICs,
// while a tenant slice splits its flits into clean (flits_ejected) and
// corrupted (flits_dropped) deliveries.
TEST(TenantPartition, FaultedSlicesSumToAggregate) {
  for (const std::uint64_t seed : {5u, 6u, 7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    scenario::Scenario s = faulted_scenario();
    s.net.seed = seed;
    scenario::TenantSpec hot;
    hot.name = "hot";
    hot.kind = scenario::WorkloadKind::kSteady;
    hot.pattern = "transpose";
    hot.rate = 0.06;
    hot.nodes = {0, 3, 5, 10, 12, 15};
    hot.stop = 2000.0;
    s.tenants.push_back(hot);
    s.validate();

    auto net = scenario::build_network(s);
    net->set_tenant_tracking(2);
    auto workload = scenario::build_workload(s, net->topology());
    while (net->core_time() < s.duration) net->step(workload.get());
    for (int guard = 0; guard < 100000 && !net->drained(); ++guard) {
      net->step(workload.get());
    }
    ASSERT_TRUE(net->drained());
    const noc::EpochStats agg = net->drain_epoch_stats();
    ASSERT_EQ(agg.tenants.size(), 2u);

    noc::TenantEpochStats sum;
    std::uint64_t flits_seen = 0;
    for (const noc::TenantEpochStats& t : agg.tenants) {
      EXPECT_GT(t.packets_offered, 0u);
      sum.packets_offered += t.packets_offered;
      sum.packets_received += t.packets_received;
      sum.flits_dropped += t.flits_dropped;
      sum.retries += t.retries;
      sum.packets_lost += t.packets_lost;
      sum.rerouted_hops += t.rerouted_hops;
      flits_seen += t.flits_ejected + t.flits_dropped;
    }
    EXPECT_GT(agg.retries, 0u);
    EXPECT_GT(agg.rerouted_hops, 0u);
    EXPECT_EQ(sum.packets_offered, agg.packets_offered);
    EXPECT_EQ(sum.packets_received, agg.packets_received);
    EXPECT_EQ(sum.flits_dropped, agg.flits_dropped);
    EXPECT_EQ(sum.retries, agg.retries);
    EXPECT_EQ(sum.packets_lost, agg.packets_lost);
    EXPECT_EQ(sum.rerouted_hops, agg.rerouted_hops);
    EXPECT_EQ(flits_seen, agg.flits_ejected);
  }
}

// Every packet ends exactly one way — delivered or reported lost — and the
// loss hook reaches a composite's child, so workloads that track live
// packets can forget the ones that will never arrive.
TEST(FaultHooks, EveryPacketIsDeliveredOrReportedLostOnce) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 12;
  noc::Network net(p);
  noc::FaultParams fp;
  fp.seed = 3;
  fp.link_fault_rate = 0.02;
  fp.retry_timeout = 16;
  fp.retry_budget = 1;
  net.set_fault_model(fp);
  std::vector<scenario::TenantBinding> bindings(1);
  auto child = std::make_unique<OutcomeInjector>(net.topology());
  OutcomeInjector& outcome = *child;
  bindings[0].injector = std::move(child);
  scenario::CompositeWorkload composite(net.num_nodes(), std::move(bindings));

  std::uint64_t lost = 0;
  for (int i = 0; i < 3000; ++i) net.step(&composite);
  lost += net.drain_epoch_stats().packets_lost;
  outcome.stop();
  for (int i = 0; i < 100000 && !net.drained(); ++i) net.step(&composite);
  ASSERT_TRUE(net.drained());
  lost += net.drain_epoch_stats().packets_lost;

  ASSERT_GT(lost, 0u);
  EXPECT_EQ(outcome.lost().size(), lost);
  EXPECT_EQ(outcome.delivered().size() + outcome.lost().size(),
            outcome.injected().size());
  for (const std::uint64_t id : outcome.lost()) {
    EXPECT_EQ(outcome.delivered().count(id), 0u) << "packet " << id;
  }
  EXPECT_EQ(composite.delivered(0), outcome.delivered().size());
}

}  // namespace
}  // namespace drlnoc
