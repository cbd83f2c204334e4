// Example: the trace & task-graph workload subsystem end to end —
// generate a DNN layer-pipeline task graph, round-trip it through the
// .drltrc text format, replay it with dependency-aware injection at two
// clock configurations (watch congestion feed back into injection times),
// and finally record a live synthetic run and replay it bit-exactly.
//
//   ./build/examples/trace_workload
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>

#include "noc/simulator.h"
#include "noc/workload.h"
#include "trace/generators.h"
#include "trace/recorder.h"
#include "trace/trace_io.h"
#include "trace/trace_workload.h"
#include "util/table.h"

using namespace drlnoc;

namespace {

noc::RunResult replay(const noc::NetworkParams& p,
                      std::shared_ptr<const trace::Trace> t,
                      double rate_scale) {
  noc::Network net(p);
  trace::TraceWorkloadParams tw;
  tw.rate_scale = rate_scale;
  trace::TraceWorkload w(std::move(t), tw);
  return trace::run_trace_replay(net, w, 2000000);
}

}  // namespace

int main() {
  // 1. Generate a task graph: a 4-stage DNN pipeline on a 4x4 mesh.
  trace::DnnPipelineParams dp;
  dp.nodes = 16;
  dp.layers = 4;
  dp.tiles_per_layer = 4;
  dp.batches = 3;
  trace::Trace generated = trace::generate_dnn_pipeline(dp);
  const trace::TraceSummary sum = generated.summary();
  std::cout << "1. generated DNN pipeline: " << sum.records << " records, "
            << sum.roots << " roots, " << sum.dep_edges << " dep edges\n";

  // 2. Round-trip through the text format: what tracectl convert does.
  std::stringstream text;
  trace::TraceWriter::write_text(text, generated);
  const trace::Trace reloaded = trace::TraceReader::read_text(text);
  std::cout << "2. text round-trip: "
            << (reloaded == generated ? "bit-exact" : "MISMATCH!") << " ("
            << text.str().size() << " bytes)\n\n";

  // 3. Dependency-aware replay: the same task graph on a fast and a slow
  //    fabric. Downstream layers inject only after their inputs are
  //    *delivered*, so the slow clock stretches the whole pipeline --
  //    simulated congestion feeds back into injection timing.
  const auto shared =
      std::make_shared<const trace::Trace>(std::move(generated));
  noc::NetworkParams fast;
  fast.width = fast.height = 4;
  noc::NetworkParams slow = fast;
  slow.initial_config.dvfs_level = 0;  // slowest clock
  util::Table t({"fabric", "core_cycles", "avg_lat", "p95_lat", "complete"});
  for (const auto& [name, params] : {std::pair{"fast (dvfs=3)", fast},
                                     std::pair{"slow (dvfs=0)", slow}}) {
    const noc::RunResult r = replay(params, shared, 1.0);
    t.row()
        .cell(name)
        .cell(r.stats.core_cycles, 0)
        .cell(r.stats.avg_latency, 1)
        .cell(r.stats.p95_latency, 1)
        .cell(r.completed ? "yes" : "no");
  }
  std::cout << "3. dependency feedback under two clock configurations:\n";
  t.print(std::cout);
  std::cout << "   (a timed-only replay would inject identically on both)\n\n";

  // 4. Record -> replay: capture a synthetic run into a trace, replay it,
  //    and compare the delivered-packet streams.
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 77;
  noc::Network original(p);
  noc::SteadyWorkload synth =
      noc::SteadyWorkload::make(original.topology(), "hotspot", 0.08);
  trace::TraceRecorder recorder(original.num_nodes(), &synth);
  for (int i = 0; i < 1500; ++i) original.step(&recorder);
  recorder.set_source(nullptr);  // stop generating, keep capturing
  noc::run_until(original, &recorder, [] { return true; }, 20000);
  const auto capture = std::make_shared<const trace::Trace>(recorder.build());

  noc::Network replayed(p);
  trace::TraceWorkload rw(capture);
  const noc::RunResult rr = trace::run_trace_replay(replayed, rw);
  std::cout << "4. record -> replay: captured " << capture->records.size()
            << " packets, replay delivered " << rr.stats.packets_received
            << " (avg latency " << util::fmt(rr.stats.avg_latency, 2)
            << " both runs: replay is bit-exact, see tests/trace_test.cpp)\n";

  // 5. Files on disk: the tracectl workflow.
  trace::TraceWriter::write_file("example_capture.drltrb", *capture);
  std::cout << "5. wrote example_capture.drltrb -- inspect it with:\n"
               "   ./build/tools/tracectl info file=example_capture.drltrb "
               "show=5\n";
  return 0;
}
