// replay_dnn_16x16: the `tracectl replay` flow. A DNN layer-pipeline task
// graph (8 layers x 16 tiles, seeded node placement) on a 16x16 mesh is
// generated and written as a `.drltrb` file before timing; reading it is
// set-up, then trace::run_trace_replay runs to completion. Packet release is
// dependency-gated with on_packet_delivered feedback on a sparse fabric.
// There is no env, controller or learning here.
#include <memory>
#include <string>
#include <utility>

#include "harness.h"
#include "trace/generators.h"
#include "trace/trace_io.h"
#include "trace/trace_workload.h"

namespace drlnoc::e2e {
namespace {

constexpr int kSize = 16;
constexpr int kNodes = kSize * kSize;
constexpr std::uint64_t kCycleLimit = 50000000;

void digest_replay(RepResult& r, const noc::EpochStats& stats,
                   std::uint64_t cycles, bool completed,
                   std::size_t records) {
  Digest d;
  digest_epoch(d, stats);
  d.u64(cycles);
  d.u64(completed ? 1 : 0);
  r.digest = d.value();
  r.ops = records;
  if (!completed) r.failures.push_back("replay did not complete");
  if (stats.packets_received != records) {
    r.failures.push_back("packets_received " +
                         std::to_string(stats.packets_received) +
                         " != records " + std::to_string(records));
  }
}

class Replay final : public Workload {
 public:
  explicit Replay(const WorkloadOptions& o)
      : o_(o),
        path_(o.workdir + "/replay.drltrb"),
        timer_pair_s_(measure_timer_pair_s()) {
    net_.width = net_.height = kSize;
    net_.seed = derive_seed(o.seed, 31) % 1000000007ULL;
  }

  void prepare() override {
    trace::DnnPipelineParams dp;
    dp.nodes = kNodes;
    dp.layers = 8;
    dp.tiles_per_layer = 16;
    dp.batches = o_.smoke ? 8 : 24;
    trace::Trace t = trace::generate_dnn_pipeline(dp);
    const std::vector<noc::NodeId> place =
        seeded_permutation(kNodes, derive_seed(o_.seed, 32));
    for (trace::TraceRecord& rec : t.records) {
      rec.src = place[static_cast<std::size_t>(rec.src)];
      rec.dst = place[static_cast<std::size_t>(rec.dst)];
    }
    trace::TraceWriter::write_file(path_, t);
  }

  RepResult run(bool traced) override {
    return traced ? run_traced() : run_plain();
  }

 private:
  RepResult run_plain() {
    RepResult r;
    const auto t0 = Clock::now();
    auto tr = std::make_shared<const trace::Trace>(
        trace::TraceReader::read_file(path_));
    noc::Network net(net_);
    trace::TraceWorkload workload(tr);
    const auto t1 = Clock::now();
    r.setup_s = seconds_between(t0, t1);
    const double cpu0 = process_cpu_s();
    const trace::TraceReplayResult res =
        trace::run_trace_replay(net, workload, kCycleLimit);
    r.wall_s = seconds_between(t1, Clock::now());
    r.cpu_s = process_cpu_s() - cpu0;
    digest_replay(r, res.stats, res.cycles, res.completed, tr->records.size());
    return r;
  }

  RepResult run_traced() {
    RepResult r;
    TracedScope scope;
    Layers& l = r.layers;
    const auto t0 = Clock::now();
    std::shared_ptr<const trace::Trace> tr;
    {
      Span s(l["trace.read.busy_s"]);
      tr = std::make_shared<const trace::Trace>(
          trace::TraceReader::read_file(path_));
    }
    std::unique_ptr<noc::Network> net;
    {
      Span s(l["noc.build.busy_s"]);
      net = std::make_unique<noc::Network>(net_);
    }
    std::unique_ptr<trace::TraceWorkload> workload;
    {
      Span s(l["trace.build.busy_s"]);
      workload = std::make_unique<trace::TraceWorkload>(tr);
    }
    const auto t1 = Clock::now();
    r.setup_s = seconds_between(t0, t1);

    // The loop of trace::run_trace_replay, with the injector wrapped.
    CountingInjector injector(*workload, timer_pair_s_);
    std::uint64_t cycles = 0;
    while (cycles < kCycleLimit && !(workload->done() && net->drained())) {
      net->step(&injector);
      ++cycles;
    }
    const bool completed = workload->done() && net->drained();
    noc::EpochStats stats;
    {
      Span s(l["noc.drain.busy_s"]);
      stats = net->drain_epoch_stats();
    }
    r.wall_s = seconds_between(t1, Clock::now());
    digest_replay(r, stats, cycles, completed, tr->records.size());

    injector.report(l, "trace.inject");
    l["trace.read.records"] = static_cast<double>(tr->records.size());
    l["trace.delivered"] = static_cast<double>(injector.delivered());
    l["noc.active_fraction"] = stats.avg_active_fraction;
    l["noc.packets_delivered"] = static_cast<double>(stats.packets_received);
    scope.finish(r, kNodes, static_cast<double>(cycles),
                 injector.busy_s(),
                 {"trace.read.busy_s", "noc.build.busy_s", "trace.build.busy_s",
                  "noc.drain.busy_s", "trace.inject.busy_s"});
    return r;
  }

  WorkloadOptions o_;
  std::string path_;
  double timer_pair_s_;
  noc::NetworkParams net_;
};

}  // namespace

std::unique_ptr<Workload> make_replay(const WorkloadOptions& o) {
  return std::make_unique<Replay>(o);
}

}  // namespace drlnoc::e2e
