// Trace subsystem tests: format round-trips, validation, dependency-gated
// task-graph replay (congestion feeds back into injection timing), the
// record -> replay bit-exactness loop, generators, and determinism.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "core/env_noc.h"
#include "golden_hash.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "trace/generators.h"
#include "trace/recorder.h"
#include "trace/trace_io.h"
#include "trace/trace_workload.h"

namespace drlnoc::trace {
namespace {

Trace small_trace() {
  Trace t;
  t.nodes = 16;
  t.default_length = 4;
  t.records = {
      {1, 0, 5, 0.0, 4, {}},
      {2, 1, 5, 2.5, 8, {}},
      {3, 5, 0, 10.0, 0, {1, 2}},
      {4, 5, 1, 3.0, 2, {3}},
  };
  return t;
}

// --- format round-trips ----------------------------------------------------

TEST(TraceIo, TextRoundTripIsExact) {
  const Trace t = small_trace();
  std::stringstream ss;
  TraceWriter::write_text(ss, t);
  EXPECT_EQ(TraceReader::read_text(ss), t);
}

TEST(TraceIo, TextRoundTripsAwkwardDoubles) {
  Trace t = small_trace();
  t.records[1].time = 0.1;              // not exactly representable
  t.records[2].time = 1e9 + 1.0 / 3.0;  // needs full precision
  std::stringstream ss;
  TraceWriter::write_text(ss, t);
  const Trace back = TraceReader::read_text(ss);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.records[1].time),
            std::bit_cast<std::uint64_t>(t.records[1].time));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.records[2].time),
            std::bit_cast<std::uint64_t>(t.records[2].time));
}

TEST(TraceIo, BinaryRoundTripIsExact) {
  const Trace t = small_trace();
  std::stringstream ss;
  TraceWriter::write_binary(ss, t);
  EXPECT_EQ(TraceReader::read_binary(ss), t);
}

TEST(TraceIo, BinaryRejectsCorruptInput) {
  std::stringstream bad_magic("nope, not a trace");
  EXPECT_THROW(TraceReader::read_binary(bad_magic), std::runtime_error);

  std::stringstream ss;
  TraceWriter::write_binary(ss, small_trace());
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(TraceReader::read_binary(truncated), std::runtime_error);
}

TEST(TraceIo, TextRejectsMalformedInput) {
  std::stringstream no_header("nodes 4\n1 0 1 0 4\n");
  EXPECT_THROW(TraceReader::read_text(no_header), std::runtime_error);
  std::stringstream bad_record("drltrc 1\nnodes 4\n1 0 oops\n");
  EXPECT_THROW(TraceReader::read_text(bad_record), std::runtime_error);
  // Deps must be one comma-separated token; space-separated deps would
  // otherwise be silently truncated to the first id.
  std::stringstream spaced_deps(
      "drltrc 1\nnodes 4\n1 0 1 0 4\n2 1 0 0 4\n3 0 1 5 4 1 2\n");
  EXPECT_THROW(TraceReader::read_text(spaced_deps), std::runtime_error);
}

TEST(TraceIo, TruncationNamesRecordIndex) {
  std::stringstream ss;
  TraceWriter::write_binary(ss, small_trace());
  const std::string full = ss.str();

  // Cut inside record 2 (header is 32 bytes, each record 32 bytes).
  std::stringstream mid_record(full.substr(0, 32 + 32 * 2 + 7));
  try {
    TraceReader::read_binary(mid_record);
    FAIL() << "truncated stream accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ends inside record 2"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("declares 4 records"),
              std::string::npos)
        << e.what();
  }

  // Cut inside the dependency table (small_trace has 3 dep entries).
  std::stringstream mid_deps(full.substr(0, full.size() - 4));
  try {
    TraceReader::read_binary(mid_deps);
    FAIL() << "truncated dependency table accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("3 dependency entries"),
              std::string::npos)
        << e.what();
  }

  // A header shorter than 32 bytes is its own diagnostic.
  std::stringstream short_header(full.substr(0, 16));
  try {
    TraceReader::read_binary(short_header);
    FAIL() << "truncated header accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated header"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, TruncatedFileErrorNamesFile) {
  const std::string path = ::testing::TempDir() + "trace_trunc.drltrb";
  std::stringstream ss;
  TraceWriter::write_binary(ss, small_trace());
  const std::string full = ss.str();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(full.data(), static_cast<std::streamsize>(full.size() / 2));
  }
  try {
    TraceReader::read_file(path);
    FAIL() << "truncated file accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("ends inside record"), std::string::npos) << what;
  }
}

TEST(TraceIo, FileRoundTripBothFormats) {
  const Trace t = small_trace();
  const std::string text_path = ::testing::TempDir() + "trace_test.drltrc";
  const std::string bin_path = ::testing::TempDir() + "trace_test.drltrb";
  TraceWriter::write_file(text_path, t);
  TraceWriter::write_file(bin_path, t);
  EXPECT_EQ(TraceReader::read_file(text_path), t);
  EXPECT_EQ(TraceReader::read_file(bin_path), t);
}

// --- validation ------------------------------------------------------------

TEST(TraceValidate, CatchesStructuralErrors) {
  Trace t = small_trace();
  EXPECT_NO_THROW(t.validate());

  Trace dup = small_trace();
  dup.records[1].id = 1;
  EXPECT_THROW(dup.validate(), std::invalid_argument);

  Trace fwd = small_trace();
  fwd.records[0].deps = {4};  // forward reference: DAG order violated
  EXPECT_THROW(fwd.validate(), std::invalid_argument);

  Trace self_send = small_trace();
  self_send.records[0].dst = self_send.records[0].src;
  EXPECT_THROW(self_send.validate(), std::invalid_argument);

  Trace range = small_trace();
  range.records[0].dst = 16;
  EXPECT_THROW(range.validate(), std::invalid_argument);

  Trace neg_time = small_trace();
  neg_time.records[0].time = -1.0;
  EXPECT_THROW(neg_time.validate(), std::invalid_argument);
}

TEST(TraceSummaryTest, CountsShape) {
  const TraceSummary s = small_trace().summary();
  EXPECT_EQ(s.records, 4u);
  EXPECT_EQ(s.roots, 2u);
  EXPECT_EQ(s.dep_edges, 3u);
  EXPECT_DOUBLE_EQ(s.span, 2.5);
  EXPECT_EQ(s.total_flits, 4u + 8u + 4u + 2u);  // length 0 -> default 4
}

// --- timed replay ----------------------------------------------------------

std::vector<noc::PacketRecord> replay_records(const noc::NetworkParams& p,
                                              TraceWorkload& w,
                                              std::uint64_t limit = 200000) {
  noc::Network net(p);
  run_trace_replay(net, w, limit);
  return net.drain_records();
}

TEST(TraceWorkloadTest, TimedReplayHitsExactTicks) {
  Trace t;
  t.nodes = 16;
  t.records = {{1, 0, 5, 10.0, 4, {}},
               {2, 3, 7, 20.0, 4, {}},
               {3, 3, 7, 20.25, 4, {}}};  // fractional: next tick (21)

  noc::NetworkParams p;
  p.width = p.height = 4;
  TraceWorkload w(t);
  const auto records = replay_records(p, w);
  ASSERT_EQ(records.size(), 3u);
  // drain_records is in completion order; key by packet id (== trace order
  // here because ids are assigned in injection order).
  double inject_of[4] = {};
  for (const auto& r : records) {
    ASSERT_GE(r.packet_id, 1u);
    ASSERT_LE(r.packet_id, 3u);
    inject_of[r.packet_id] = r.inject_time;
  }
  EXPECT_DOUBLE_EQ(inject_of[1], 10.0);
  EXPECT_DOUBLE_EQ(inject_of[2], 20.0);
  EXPECT_DOUBLE_EQ(inject_of[3], 21.0);
}

TEST(TraceWorkloadTest, RateScaleCompressesReleases) {
  Trace t;
  t.nodes = 16;
  t.records = {{1, 0, 5, 10.0, 4, {}}, {2, 1, 6, 30.0, 4, {}}};
  noc::NetworkParams p;
  p.width = p.height = 4;
  TraceWorkloadParams tw;
  tw.rate_scale = 2.0;
  TraceWorkload w(t, tw);
  const auto records = replay_records(p, w);
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) {
    EXPECT_DOUBLE_EQ(r.inject_time, r.packet_id == 1 ? 5.0 : 15.0);
  }
}

TEST(TraceWorkloadTest, RejectsNonpositiveRateScale) {
  // A zero/negative/non-finite rate scale would turn release times into
  // inf/NaN; the constructor must refuse it with a clear error instead.
  const Trace t = small_trace();
  for (const double bad : {0.0, -1.0,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    TraceWorkloadParams tw;
    tw.rate_scale = bad;
    EXPECT_THROW(TraceWorkload(t, tw), std::invalid_argument) << bad;
  }
}

TEST(TraceEnv, RejectsNonpositiveTraceRateScale) {
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.trace = std::make_shared<const Trace>(small_trace());
  ep.trace_rate_scale = 0.0;
  EXPECT_THROW(core::NocConfigEnv{ep}, std::invalid_argument);
  ep.trace_rate_scale = -2.0;
  EXPECT_THROW(core::NocConfigEnv{ep}, std::invalid_argument);
}

TEST(TraceWorkloadTest, PerSourceQueueDrainsOnePerTick) {
  // Three same-tick releases from one source: emitted on consecutive ticks,
  // in declaration order.
  Trace t;
  t.nodes = 16;
  t.records = {{1, 0, 5, 4.0, 1, {}},
               {2, 0, 6, 4.0, 1, {}},
               {3, 0, 7, 4.0, 1, {}}};
  noc::NetworkParams p;
  p.width = p.height = 4;
  TraceWorkload w(t);
  const auto records = replay_records(p, w);
  ASSERT_EQ(records.size(), 3u);
  for (const auto& r : records) {
    EXPECT_DOUBLE_EQ(r.inject_time, 3.0 + static_cast<double>(r.packet_id));
  }
}

// --- dependency gating -----------------------------------------------------

TEST(TraceWorkloadTest, DependentNeverInjectsBeforeDelivery) {
  Trace t;
  t.nodes = 16;
  t.records = {{1, 0, 15, 0.0, 8, {}},        // long diagonal packet
               {2, 15, 0, 5.0, 4, {1}},       // reply, 5 cycles of compute
               {3, 7, 8, 2.0, 4, {1, 2}}};    // fan-in on both
  noc::NetworkParams p;
  p.width = p.height = 4;
  TraceWorkload w(t);
  noc::Network net(p);
  const auto result = run_trace_replay(net, w, 200000);
  EXPECT_TRUE(result.completed);
  const auto records = net.drain_records();
  ASSERT_EQ(records.size(), 3u);
  const noc::PacketRecord* by_id[4] = {};
  for (const auto& r : records) by_id[r.packet_id] = &r;
  ASSERT_TRUE(by_id[1] && by_id[2] && by_id[3]);
  // The reply waits for delivery plus its compute delay.
  EXPECT_GE(by_id[2]->inject_time, by_id[1]->eject_time + 5.0);
  // The fan-in waits for the *latest* of its dependencies.
  EXPECT_GE(by_id[3]->inject_time, by_id[2]->eject_time + 2.0);
}

TEST(TraceWorkloadTest, CongestionShiftsDependentInjection) {
  // The same task graph replayed on a fast and a throttled fabric: the
  // dependent record's injection time must move with simulated delivery
  // time — congestion feeds back into the injection process.
  Trace t;
  t.nodes = 16;
  t.records = {{1, 0, 15, 0.0, 16, {}}, {2, 15, 3, 0.0, 4, {1}}};

  const auto inject_time_of_dependent =
      [&](const noc::NocConfig& config) -> double {
    noc::NetworkParams p;
    p.width = p.height = 4;
    p.initial_config = config;
    TraceWorkload w(t);
    noc::Network net(p);
    EXPECT_TRUE(run_trace_replay(net, w, 400000).completed);
    for (const auto& r : net.drain_records()) {
      if (r.packet_id == 2) return r.inject_time;
    }
    return -1.0;
  };

  const double fast = inject_time_of_dependent({4, 8, 3});
  const double slow = inject_time_of_dependent({1, 1, 0});  // starved + slow
  ASSERT_GE(fast, 0.0);
  ASSERT_GE(slow, 0.0);
  EXPECT_GT(slow, fast);
}

TEST(TraceWorkloadTest, LoopRestartsAfterFullDelivery) {
  Trace t;
  t.nodes = 16;
  t.records = {{1, 0, 5, 0.0, 4, {}}, {2, 5, 0, 1.0, 4, {1}}};
  TraceWorkloadParams tw;
  tw.loop = true;
  TraceWorkload w(t, tw);
  noc::NetworkParams p;
  p.width = p.height = 4;
  noc::Network net(p);
  for (int i = 0; i < 2000; ++i) net.step(&w);
  EXPECT_FALSE(w.done());  // looping workloads never finish
  EXPECT_GT(w.iterations(), 3u);
  // Each completed iteration emitted both records; the current one may be
  // anywhere in flight.
  EXPECT_GE(w.emitted(), (w.iterations() - 1) * 2);
  EXPECT_LE(w.emitted(), w.iterations() * 2);
  EXPECT_GT(net.total_packets_received(), 4u);
}

TEST(TraceWorkloadTest, RearmForgetsThePreviousIteration) {
  // Drives the injector hooks by hand: ids are the caller's, and deliveries
  // can be replayed, duplicated and reordered at will.
  Trace t;
  t.nodes = 4;
  t.records = {{1, 0, 1, 0.0, 1, {}}, {2, 2, 3, 0.0, 1, {}}};
  TraceWorkloadParams tw;
  tw.loop = true;
  TraceWorkload w(t, tw);
  util::Rng rng(1);
  auto emit = [&](noc::NodeId src, std::uint64_t id, double now) {
    ASSERT_NE(w.generate(src, now, rng), noc::kInvalidNode);
    (void)w.packet_length_for(src, now);
    w.on_packet_injected(src, id, now);
  };
  auto deliver = [&](std::uint64_t id, double now) {
    noc::PacketRecord rec;
    rec.packet_id = id;
    rec.eject_time = now;
    w.on_packet_delivered(rec);
  };
  emit(0, 10, 0.0);
  emit(2, 11, 0.0);
  deliver(11, 5.0);  // out of order
  deliver(10, 6.0);
  EXPECT_EQ(w.iterations(), 2u);  // rearmed at the last delivery
  EXPECT_EQ(w.delivered(), 2u);

  // A stale duplicate of iteration 1 after the rearm is not ours.
  deliver(10, 7.0);
  EXPECT_EQ(w.delivered(), 2u);
  // Iteration 2 runs on fresh ids, with a foreign id in between.
  emit(0, 20, 6.0);
  emit(2, 22, 6.0);
  deliver(21, 8.0);  // never injected through this workload
  EXPECT_EQ(w.delivered(), 2u);
  deliver(22, 9.0);
  deliver(20, 9.0);
  EXPECT_EQ(w.delivered(), 4u);
  EXPECT_EQ(w.iterations(), 3u);
}

TEST(TraceWorkloadTest, IgnoresDeliveriesInjectedBeforeAttach) {
  // Saturating warm-up traffic from another injector is still in flight
  // when the trace attaches; its deliveries must not count for the trace.
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 3;
  noc::Network net(p);
  noc::SteadyWorkload warm =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.3);
  for (int i = 0; i < 300; ++i) net.step(&warm);
  const std::uint64_t warm_offered = net.total_packets_offered();
  const std::uint64_t warm_received = net.total_packets_received();
  ASSERT_GT(warm_offered, warm_received);

  const Trace t = small_trace();
  TraceWorkload w(t);
  const auto result = run_trace_replay(net, w, 200000);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(w.emitted(), t.records.size());
  EXPECT_EQ(w.delivered(), t.records.size());
  // Every warm-up packet was delivered while the trace was attached.
  EXPECT_EQ(net.total_packets_received(), warm_offered + t.records.size());
}

// --- record -> replay ------------------------------------------------------

/// The full delivered-packet stream.
std::uint64_t stream_hash(const std::vector<noc::PacketRecord>& records) {
  GoldenHash h;
  mix_records(h, records);
  return h.value();
}

TEST(TraceRecorderTest, RecordReplayIsBitExact) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 42;

  // Original run: synthetic traffic, run + drain so the capture is complete.
  noc::Network original(p);
  noc::SteadyWorkload synth =
      noc::SteadyWorkload::make(original.topology(), "uniform", 0.10);
  for (int i = 0; i < 1200; ++i) original.step(&synth);
  for (int i = 0; i < 50000 && !original.drained(); ++i)
    original.step(nullptr);
  ASSERT_TRUE(original.drained());
  const auto original_records = original.drain_records();
  ASSERT_GT(original_records.size(), 100u);

  TraceRecorder recorder(original.num_nodes());
  for (const auto& rec : original_records) recorder.add(rec);
  const Trace capture = recorder.build();
  EXPECT_EQ(recorder.captured(), original_records.size());

  // Round-trip the capture through the binary format, then replay it on an
  // identically-parameterised network.
  std::stringstream ss;
  TraceWriter::write_binary(ss, capture);
  TraceWorkload w(TraceReader::read_binary(ss));
  noc::Network replayed(p);
  const auto result = run_trace_replay(replayed, w, 500000);
  EXPECT_TRUE(result.completed);

  // The delivered-packet stream — ids, endpoints, lengths, per-packet
  // timestamps, hop counts — must be identical bit for bit.
  EXPECT_EQ(stream_hash(replayed.drain_records()),
            stream_hash(original_records));
}

TEST(TraceWorkloadTest, ReplayIsDeterministic) {
  const auto dnn = generate_dnn_pipeline({16, 4, 4, 3, 64.0, 32.0, 8});
  noc::NetworkParams p;
  p.width = p.height = 4;
  const auto run = [&] {
    TraceWorkload w(dnn);
    noc::Network net(p);
    run_trace_replay(net, w, 500000);
    return stream_hash(net.drain_records());
  };
  EXPECT_EQ(run(), run());
}

// --- generators ------------------------------------------------------------

TEST(Generators, DnnPipelineShape) {
  DnnPipelineParams p;
  p.nodes = 16;
  p.layers = 4;
  p.tiles_per_layer = 4;
  p.batches = 2;
  const Trace t = generate_dnn_pipeline(p);
  EXPECT_NO_THROW(t.validate());
  // 3 boundaries x 16 tile pairs x 2 batches, no wrapped self-sends on 16
  // nodes with 4x4 placement.
  EXPECT_EQ(t.records.size(), 96u);
  const TraceSummary s = t.summary();
  EXPECT_EQ(s.roots, 32u);  // layer-0 boundary packets
  EXPECT_TRUE(t.has_dependencies());
}

TEST(Generators, AllReduceRingShape) {
  AllReduceRingParams p;
  p.nodes = 8;
  p.rounds = 2;
  const Trace t = generate_allreduce_ring(p);
  EXPECT_NO_THROW(t.validate());
  // 2 rounds x 2(N-1) steps x N packets.
  EXPECT_EQ(t.records.size(), 2u * 14u * 8u);
  EXPECT_EQ(t.summary().roots, 8u);  // only round 0, step 0
}

TEST(Generators, AllToAllShape) {
  AllToAllParams p;
  p.nodes = 6;
  p.rounds = 3;
  const Trace t = generate_alltoall(p);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.records.size(), 3u * 6u * 5u);
  // Each round-r>0 packet waits on all 5 packets its source received.
  EXPECT_EQ(t.summary().dep_edges, 2u * 6u * 5u * 5u);
}

// --- RL environment wiring -------------------------------------------------

TEST(TraceEnv, EpisodesRunOnTraceWorkloads) {
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.trace = std::make_shared<const Trace>(
      generate_dnn_pipeline({16, 4, 4, 3, 64.0, 32.0, 8}));
  ep.epoch_cycles = 256;
  ep.epochs_per_episode = 4;
  core::NocConfigEnv env(ep);
  EXPECT_EQ(env.phased_workload(), nullptr);  // trace episodes, not phased

  const rl::State s0 = env.reset();
  EXPECT_EQ(s0.size(), env.state_size());
  EXPECT_NE(env.workload(), nullptr);
  EXPECT_NE(env.workload()->name().find("trace"), std::string::npos);
  double traffic = 0.0;
  for (int a = 0; a < 3; ++a) {
    const rl::StepResult r = env.step(a % env.num_actions());
    EXPECT_EQ(r.next_state.size(), env.state_size());
    traffic += static_cast<double>(env.last_stats().packets_offered);
  }
  EXPECT_GT(traffic, 0.0);  // the looping trace keeps every epoch fed

  // Trace episodes are reproducible: the injection process is the trace.
  core::NocConfigEnv env2(ep);
  const rl::State s0b = env2.reset();
  ASSERT_EQ(s0.size(), s0b.size());
  for (std::size_t i = 0; i < s0.size(); ++i) EXPECT_DOUBLE_EQ(s0[i], s0b[i]);
}

TEST(TraceEnv, RejectsTraceLargerThanNetwork) {
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = 4;  // 16 nodes
  ep.trace = std::make_shared<const Trace>(
      generate_alltoall({64, 1, 8.0, 4, 0.0}));
  EXPECT_THROW(core::NocConfigEnv{ep}, std::invalid_argument);
}

TEST(Generators, CollectivesReplayToCompletion) {
  noc::NetworkParams p;
  p.width = p.height = 3;
  for (const Trace& t :
       {generate_allreduce_ring({9, 1, 16.0, 8, 0.0}),
        generate_alltoall({9, 2, 8.0, 4, 0.0})}) {
    TraceWorkload w(t);
    noc::Network net(p);
    const auto result = run_trace_replay(net, w, 500000);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(net.total_packets_received(), t.records.size());
  }
}

}  // namespace
}  // namespace drlnoc::trace
