// Observability subsystem tests: flight-recorder ring/sampling semantics,
// Chrome trace export shape, the per-epoch metrics table and its exports,
// profiler accounting — and the load-bearing guarantee: attaching every
// observer at full sampling must not move a single bit of the golden
// determinism hashes from determinism_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "golden_hash.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "obs/flight_recorder.h"
#include "obs/network_metrics.h"
#include "obs/profiler.h"
#include "obs/session.h"
#include "trace/recorder.h"
#include "util/fnv.h"

namespace drlnoc {
namespace {

// --- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RingOverwritesOldestAndCountsDrops) {
  obs::FlightRecorderParams p;
  p.capacity = 4;
  obs::FlightRecorder rec(p);
  for (std::uint64_t i = 0; i < 6; ++i) {
    rec.record(obs::EventKind::kPacketInject, static_cast<double>(i), i,
               /*packet_id=*/i + 1);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  const std::vector<obs::TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: events 0 and 1 were overwritten.
  EXPECT_EQ(events.front().packet_id, 3u);
  EXPECT_EQ(events.back().packet_id, 6u);
}

TEST(FlightRecorder, SampleRateEndpoints) {
  obs::FlightRecorderParams all;
  all.sample_rate = 1.0;
  obs::FlightRecorder rec_all(all);
  obs::FlightRecorderParams none;
  none.sample_rate = 0.0;
  obs::FlightRecorder rec_none(none);
  for (std::uint64_t id = 1; id < 1000; ++id) {
    EXPECT_TRUE(rec_all.sampled(id));
    EXPECT_FALSE(rec_none.sampled(id));
  }
}

TEST(FlightRecorder, SamplingIsDeterministicAndRoughlyProportional) {
  obs::FlightRecorderParams p;
  p.sample_rate = 0.25;
  obs::FlightRecorder a(p);
  obs::FlightRecorder b(p);
  int hits = 0;
  const int n = 20000;
  for (std::uint64_t id = 1; id <= static_cast<std::uint64_t>(n); ++id) {
    const bool s = a.sampled(id);
    // Pure function of (seed, id): two recorders agree, and re-asking agrees.
    EXPECT_EQ(s, b.sampled(id));
    EXPECT_EQ(s, a.sampled(id));
    hits += s ? 1 : 0;
  }
  const double frac = static_cast<double>(hits) / n;
  EXPECT_NEAR(frac, 0.25, 0.02);
}

TEST(FlightRecorder, ChromeTraceShape) {
  obs::FlightRecorderParams p;
  p.capacity = 16;
  obs::FlightRecorder rec(p);
  rec.record(obs::EventKind::kPacketInject, 1.0, 1, /*packet_id=*/7, 0, 5, 4);
  rec.record(obs::EventKind::kPacketHop, 2.0, 2, /*packet_id=*/7, 1, 2, 1);
  rec.record(obs::EventKind::kPacketEject, 3.0, 3, /*packet_id=*/7, 5, 2, 0);
  rec.record(obs::EventKind::kConfigApply, 3.0, 3, 0, 4, 8, 0);
  rec.record(obs::EventKind::kTenantStart, 0.0, 0, 0, 1);
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\""), std::string::npos);
  // Packet lifecycle is an async begin/end pair keyed by the packet id.
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  // Scenario events are instants; config applies are counter tracks.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

// --- network metrics --------------------------------------------------------

// A faulted 4x4 run over six epochs with a reconfiguration between them:
// the metrics JSON followed by the heatmap CSV.
std::string faulted_metrics_artifacts() {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 17;
  noc::Network net(p);
  noc::FaultParams fp;
  fp.seed = 5;
  fp.link_fault_rate = 0.02;
  fp.retry_timeout = 32;
  fp.retry_budget = 1;
  noc::FaultEvent down;
  down.at_cycle = 300;
  down.node = 5;
  down.port = 1;
  fp.events.push_back(down);
  net.set_fault_model(fp);
  obs::NetworkMetrics metrics(net.num_nodes());
  net.set_metrics(&metrics);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.12);
  for (int epoch = 0; epoch < 6; ++epoch) {
    net.run_epoch(&w, 400);
    net.apply_config(
        noc::NocConfig{2 + epoch % 3, 4 + epoch % 5, 1 + epoch % 3});
  }
  std::ostringstream os;
  metrics.write_json(os);
  metrics.write_heatmap_csv(os);
  return os.str();
}

TEST(NetworkMetrics, GoldenArtifactsOfAFaultedRun) {
  const std::string bytes = faulted_metrics_artifacts();
  // The run must exercise the fault series the golden pins.
  EXPECT_EQ(bytes.find("\"fault.retries\", \"kind\": \"counter\", "
                       "\"instances\": 1, \"values\": [0, 0, 0, 0, 0, 0]"),
            std::string::npos);
  EXPECT_EQ(util::Fnv1a64(util::Fnv1a64::kStandardBasis).bytes(bytes).value(),
            17418328190577266042ULL);
}

TEST(NetworkMetrics, EachRowHoldsThatEpochsCounts) {
  obs::NetworkMetrics metrics(2);
  noc::EpochStats first;
  first.packets_offered = 3;
  first.avg_latency = 42.0;
  metrics.sample_node(1, /*link_flits=*/7, 0, 0, 0);
  metrics.commit_epoch(1.0, first);
  metrics.commit_epoch(2.0, noc::EpochStats{});  // an idle epoch
  ASSERT_EQ(metrics.samples(), 2u);
  std::ostringstream os;
  metrics.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"times\": [1, 2]"), std::string::npos);
  // A counter row is that epoch's count, not a running total.
  EXPECT_NE(json.find("{\"name\": \"net.packets_offered\", \"kind\": "
                      "\"counter\", \"instances\": 1, \"values\": [3, 0]}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"net.latency_avg\", \"kind\": "
                      "\"gauge\", \"instances\": 1, \"values\": [42, 0]}"),
            std::string::npos);
  // A router not sampled again keeps its last sample.
  EXPECT_NE(json.find("{\"name\": \"router.link_flits\", \"kind\": "
                      "\"gauge\", \"instances\": 2, "
                      "\"values\": [[0, 7], [0, 7]]}"),
            std::string::npos);
  // Only epochs that delivered packets feed the latency histogram.
  EXPECT_NE(json.find("{\"name\": \"net.epoch_latency_avg\", \"count\": 0,"),
            std::string::npos);
}

TEST(NetworkMetrics, HeatmapCsvHasOneRowPerEpoch) {
  obs::NetworkMetrics metrics(3);
  metrics.sample_node(0, /*link_flits=*/1, 5, 5, 5);
  metrics.sample_node(2, /*link_flits=*/9, 5, 5, 5);
  metrics.commit_epoch(10.0, noc::EpochStats{});
  metrics.sample_node(1, /*link_flits=*/4, 5, 5, 5);
  metrics.commit_epoch(20.5, noc::EpochStats{});
  std::ostringstream os;
  metrics.write_heatmap_csv(os);
  EXPECT_EQ(os.str(), "time,i0,i1,i2\n10,1,0,9\n20.5,1,4,9\n");
}

// --- profiler ---------------------------------------------------------------

TEST(Profiler, DisabledScopesRecordNothing) {
  obs::Profiler& prof = obs::Profiler::instance();
  prof.reset();
  prof.set_enabled(false);
  { obs::ScopedPhase scope(obs::Phase::kNetStep); }
  EXPECT_EQ(prof.totals(obs::Phase::kNetStep).count, 0u);
}

TEST(Profiler, EnabledScopesAccumulate) {
  obs::Profiler& prof = obs::Profiler::instance();
  prof.reset();
  prof.set_enabled(true);
  { obs::ScopedPhase scope(obs::Phase::kLearn); }
  { obs::ScopedPhase scope(obs::Phase::kLearn); }
  prof.set_enabled(false);
  EXPECT_EQ(prof.totals(obs::Phase::kLearn).count, 2u);
  std::ostringstream os;
  prof.write_json(os);
  EXPECT_NE(os.str().find("\"learn\""), std::string::npos);
  prof.reset();
}

// --- session plumbing -------------------------------------------------------

TEST(ObsSession, DisabledSessionIsInert) {
  obs::ObsOptions opts;  // no output paths
  obs::ObsSession session(opts);
  EXPECT_FALSE(session.enabled());
  EXPECT_EQ(session.recorder(), nullptr);
  EXPECT_EQ(session.metrics(16), nullptr);
  EXPECT_FALSE(obs::Profiler::instance().enabled());
  EXPECT_TRUE(session.finish());
}

TEST(ObsSession, HeatmapPathDerivation) {
  EXPECT_EQ(obs::heatmap_path_for("metrics.json"), "metrics_heatmap.csv");
  EXPECT_EQ(obs::heatmap_path_for("out/m"), "out/m_heatmap.csv");
}

// --- the non-perturbation guarantee ----------------------------------------
// Replicates determinism_test.cpp's Mesh8x8UniformWithReconfig hash with
// every observer attached at full sampling. The golden constant is the same
// one determinism_test pins for the bare fabric: observation must be free.

std::uint64_t mesh8x8_hash(obs::FlightRecorder* rec,
                           obs::NetworkMetrics* metrics) {
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 42;
  noc::Network net(p);
  if (rec != nullptr) net.set_flight_recorder(rec);
  if (metrics != nullptr) net.set_metrics(metrics);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.10);
  trace::TraceRecorder recorder(net.num_nodes(), &w);
  GoldenHash h;
  mix_stats(h, net.run_epoch(&recorder, 1500));
  net.apply_config(noc::NocConfig{2, 4, 2});
  mix_stats(h, net.run_epoch(&recorder, 1500));
  mix_records(h, recorder.records());
  mix_router_state(h, net);
  return h.value();
}

TEST(ObserverNonPerturbation, GoldenHashUnchangedWithAllObserversAttached) {
  obs::FlightRecorderParams rp;
  rp.sample_rate = 1.0;
  obs::FlightRecorder rec(rp);
  obs::NetworkMetrics metrics(64);
  obs::Profiler::instance().reset();
  obs::Profiler::instance().set_enabled(true);
  const std::uint64_t observed = mesh8x8_hash(&rec, &metrics);
  obs::Profiler::instance().set_enabled(false);
  obs::Profiler::instance().reset();
  // Golden constant from determinism_test.cpp — the bare-fabric value.
  EXPECT_EQ(observed, 11893662481098957864ULL);
  // The observers actually saw the run (they just didn't touch it).
  EXPECT_GT(rec.recorded(), 0u);
  EXPECT_GT(metrics.samples(), 0u);
}

TEST(ObserverNonPerturbation, PartialSamplingMatchesBareRun) {
  obs::FlightRecorderParams rp;
  rp.sample_rate = 0.1;  // any rate must be behaviour-neutral
  obs::FlightRecorder rec(rp);
  EXPECT_EQ(mesh8x8_hash(&rec, nullptr), mesh8x8_hash(nullptr, nullptr));
}

}  // namespace
}  // namespace drlnoc
