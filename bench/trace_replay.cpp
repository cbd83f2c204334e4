// trace_replay: the trace subsystem's rate-scale sweep. Replays generated
// task-graph traces at several replay speeds (fig1-style: one independent
// simulation per point, fanned out over the experiment engine) and prints
// how dependency-gated completion time and latency respond. Exits 1 when
// a replay hits its cycle limit. The trace hot paths (generation, I/O,
// replay rates) are perf_smoke's trace_* keys.
//
//   ./bench/trace_replay
//   ./bench/trace_replay size=8 --jobs 4
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "noc/network.h"
#include "trace/generators.h"
#include "trace/trace_workload.h"
#include "util/config.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace drlnoc;

namespace {

noc::RunResult replay_once(const noc::NetworkParams& net_params,
                           std::shared_ptr<const trace::Trace> t,
                           double rate_scale,
                           std::uint64_t cycle_limit) {
  noc::Network net(net_params);
  trace::TraceWorkloadParams tw;
  tw.rate_scale = rate_scale;
  trace::TraceWorkload workload(std::move(t), tw);
  return trace::run_trace_replay(net, workload, cycle_limit);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  const int size = cfg.get("size", 8);
  const int jobs = util::ThreadPool::resolve_jobs(cfg.get("jobs", 0));

  noc::NetworkParams net_params;
  net_params.width = net_params.height = size;
  net_params.seed = 1;
  const int nodes = size * size;

  trace::DnnPipelineParams dnn;
  dnn.nodes = nodes;
  dnn.layers = 6;
  dnn.tiles_per_layer = std::min(8, std::max(2, nodes / 8));
  dnn.batches = 6;
  const auto dnn_trace =
      std::make_shared<const trace::Trace>(trace::generate_dnn_pipeline(dnn));

  trace::AllToAllParams a2a;
  a2a.nodes = nodes;
  a2a.rounds = 3;
  const auto a2a_trace =
      std::make_shared<const trace::Trace>(trace::generate_alltoall(a2a));

  std::cout << "trace_replay: " << size << "x" << size << " mesh, dnn="
            << dnn_trace->records.size() << " rec, alltoall="
            << a2a_trace->records.size() << " rec (jobs=" << jobs << ")\n\n";

  struct SweepTask {
    const char* name;
    std::shared_ptr<const trace::Trace> trace;
    double rate_scale;
  };
  std::vector<SweepTask> tasks;
  const std::vector<double> scales = {0.5, 1.0, 2.0, 4.0};
  for (double s : scales) tasks.push_back({"dnn", dnn_trace, s});
  for (double s : scales) tasks.push_back({"alltoall", a2a_trace, s});

  const auto results = util::parallel_map<noc::RunResult>(
      static_cast<int>(tasks.size()), jobs, [&](int i) {
        const SweepTask& task = tasks[static_cast<std::size_t>(i)];
        return replay_once(net_params, task.trace, task.rate_scale, 4000000);
      });

  util::Table t({"trace", "rate_scale", "core_cycles", "packets", "avg_lat",
                 "p95_lat", "energy_uJ", "complete"});
  bool all_completed = true;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& r = results[i];
    all_completed = all_completed && r.completed;
    t.row()
        .cell(tasks[i].name)
        .cell(tasks[i].rate_scale, 2)
        .cell(r.stats.core_cycles, 0)
        .cell(static_cast<long long>(r.stats.packets_received))
        .cell(r.stats.avg_latency, 1)
        .cell(r.stats.p95_latency, 1)
        .cell(r.stats.total_energy_pj() / 1e6, 2)
        .cell(r.completed ? "yes" : "NO");
  }
  t.print(std::cout);
  std::cout << "\ndependency gating makes completion sub-linear in "
               "rate_scale: past the fabric's capacity, extra replay speed "
               "just moves waiting from release times into the network.\n";
  return all_completed ? 0 : 1;
}
