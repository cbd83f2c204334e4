// tracectl: inspect, convert, generate, and replay application traces.
//
//   tracectl info file=app.drltrc [show=8]
//   tracectl stats file=app.drltrc [top=8]
//   tracectl convert in=app.drltrc out=app.drltrb
//   tracectl generate kind=dnn|allreduce|alltoall out=app.drltrc [nodes=16 ...]
//   tracectl replay file=app.drltrc [size=4] [topology=mesh] [scale=1.0]
//            [cycle_limit=1000000]
//
// The text format (.drltrc) and binary format (.drltrb) are documented in
// src/trace/trace_io.h; `generate` parameters mirror the structs in
// src/trace/generators.h (layers=, tiles=, batches=, rounds=, flits=,
// compute=, interval=).
#include <algorithm>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "noc/network.h"
#include "trace/generators.h"
#include "trace/trace_io.h"
#include "trace/trace_workload.h"
#include "util/config.h"
#include "util/log.h"
#include "util/table.h"

using namespace drlnoc;

namespace {

constexpr const char* kUsage =
    "usage: tracectl <info|stats|convert|generate|replay> key=value...\n"
    "  info     file=X [show=N]\n"
    "  stats    file=X [top=N]        (per-node histograms + "
    "dependency depth)\n"
    "  convert  in=X out=Y            (.drltrc text, .drltrb "
    "binary)\n"
    "  generate kind=dnn|allreduce|alltoall out=X [nodes=16]\n"
    "           [layers=4 tiles=4 batches=4 interval=64]  (dnn)\n"
    "           [rounds=N compute=C flits=F start=T]\n"
    "  replay   file=X [size=4] [topology=mesh] [scale=1.0]\n"
    "           [cycle_limit=1000000]\n"
    "Pass --help after a subcommand for its full option list; formats are\n"
    "specified in docs/FORMATS.md.\n";

int usage() {
  std::cerr << kUsage;
  return 2;
}

/// Detailed per-subcommand help, printed to stdout for `tracectl <cmd>
/// --help` (exit 0, unlike the exit-2 usage() error path).
int help(const std::string& command) {
  if (command == "info") {
    std::cout
        << "tracectl info file=X [show=N]\n"
           "Print a trace's header and summary (records, roots, dependency\n"
           "edges, time span, offered root rate, total flits). show=N also\n"
           "lists the first N records. Reads .drltrc (text) or .drltrb\n"
           "(binary); the encoding is sniffed from the file contents.\n";
  } else if (command == "stats") {
    std::cout
        << "tracectl stats file=X [top=N]\n"
           "Per-node packet/flit histograms plus a dependency-depth summary\n"
           "(depth = longest predecessor chain; roots are depth 0) — the\n"
           "quick shape check before replaying an unfamiliar trace.\n"
           "top=N shows the N busiest nodes (default 8; top=0 for all).\n";
  } else if (command == "convert") {
    std::cout
        << "tracectl convert in=X out=Y\n"
           "Re-encode a trace. The output encoding is chosen by extension:\n"
           ".drltrb is packed binary (32-byte record stride), anything else\n"
           "is text. Both directions round-trip bit-exactly.\n";
  } else if (command == "generate") {
    std::cout
        << "tracectl generate kind=K out=X [params...]\n"
           "Synthesize a task-graph trace. Kinds and their parameters:\n"
           "  dnn        layer-pipeline DNN: nodes= layers= tiles= batches=\n"
           "             interval= compute= flits=\n"
           "  allreduce  ring all-reduce: nodes= rounds= compute= flits=\n"
           "             start=\n"
           "  alltoall   barrier-separated rounds: nodes= rounds= compute=\n"
           "             flits= start=\n"
           "Defaults mirror the structs in src/trace/generators.h.\n";
  } else if (command == "replay") {
    std::cout
        << "tracectl replay file=X [size=4] [topology=mesh] [scale=1.0]\n"
           "               [cycle_limit=1000000]\n"
           "Replay a trace on a fresh fabric and print latency/energy\n"
           "metrics. size= (or width=/height=) must cover the trace's node\n"
           "count; scale= divides all release times (load knob); seed= sets\n"
           "the network seed. Exit 1 if the cycle limit is hit first.\n";
  } else {
    std::cout << kUsage;
  }
  return 0;
}

int cmd_info(const util::Config& cfg) {
  const std::string path = cfg.get("file", std::string());
  if (path.empty()) return usage();
  const trace::Trace t = trace::TraceReader::read_file(path);
  const trace::TraceSummary s = t.summary();
  std::cout << "trace: " << path << "\n"
            << "  nodes          " << t.nodes << "\n"
            << "  default_length " << t.default_length << " flits\n"
            << "  records        " << s.records << "\n"
            << "  roots          " << s.roots << "\n"
            << "  dep_edges      " << s.dep_edges << "\n"
            << "  span           " << util::fmt(s.span, 1)
            << " core cycles (roots)\n"
            << "  offered_rate   " << util::fmt(s.offered_rate, 5)
            << " root pkts/node/cycle\n"
            << "  total_flits    " << s.total_flits << "\n";
  const int show = cfg.get("show", 0);
  if (show > 0) {
    util::Table tab({"id", "src", "dst", "time", "flits", "deps"});
    int shown = 0;
    for (const trace::TraceRecord& r : t.records) {
      if (shown++ >= show) break;
      std::string deps;
      for (std::size_t i = 0; i < r.deps.size(); ++i) {
        deps += (i ? "," : "") + std::to_string(r.deps[i]);
      }
      tab.row()
          .cell(static_cast<long long>(r.id))
          .cell(r.src)
          .cell(r.dst)
          .cell(r.time, 2)
          .cell(r.length)
          .cell(deps.empty() ? "-" : deps);
    }
    tab.print(std::cout);
  }
  return 0;
}

/// Per-source/per-destination packet and flit histograms plus a
/// dependency-depth summary (depth = longest predecessor chain; roots are
/// depth 0) — the quick shape check before replaying an unfamiliar trace.
int cmd_stats(const util::Config& cfg) {
  const std::string path = cfg.get("file", std::string());
  if (path.empty()) return usage();
  const trace::Trace t = trace::TraceReader::read_file(path);

  struct NodeCounts {
    std::uint64_t pkts_out = 0, flits_out = 0;
    std::uint64_t pkts_in = 0, flits_in = 0;
  };
  std::vector<NodeCounts> nodes(static_cast<std::size_t>(t.nodes));
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(t.records.size());
  std::vector<std::uint32_t> depth(t.records.size(), 0);
  std::uint32_t max_depth = 0;
  double depth_sum = 0.0;
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    const trace::TraceRecord& r = t.records[i];
    const auto flits = static_cast<std::uint64_t>(
        r.length > 0 ? r.length : t.default_length);
    nodes[static_cast<std::size_t>(r.src)].pkts_out += 1;
    nodes[static_cast<std::size_t>(r.src)].flits_out += flits;
    nodes[static_cast<std::size_t>(r.dst)].pkts_in += 1;
    nodes[static_cast<std::size_t>(r.dst)].flits_in += flits;
    for (std::uint64_t dep : r.deps) {
      // validate() guarantees deps were declared earlier.
      depth[i] = std::max(depth[i], depth[index.at(dep)] + 1);
    }
    index.emplace(r.id, i);
    max_depth = std::max(max_depth, depth[i]);
    depth_sum += static_cast<double>(depth[i]);
  }

  const trace::TraceSummary s = t.summary();
  std::cout << "trace: " << path << " (" << s.records << " records, "
            << t.nodes << " nodes, " << s.dep_edges << " dep edges)\n\n";

  std::vector<int> order(static_cast<std::size_t>(t.nodes));
  for (int i = 0; i < t.nodes; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&nodes](int a, int b) {
    const NodeCounts& x = nodes[static_cast<std::size_t>(a)];
    const NodeCounts& y = nodes[static_cast<std::size_t>(b)];
    const std::uint64_t xa = x.pkts_out + x.pkts_in;
    const std::uint64_t ya = y.pkts_out + y.pkts_in;
    return xa != ya ? xa > ya : a < b;
  });
  int top = cfg.get("top", 8);
  if (top <= 0 || top > t.nodes) top = t.nodes;
  std::cout << "busiest " << top << " of " << t.nodes
            << " nodes (pass top=0 for all):\n";
  util::Table per_node({"node", "pkts_out", "flits_out", "pkts_in",
                        "flits_in"});
  for (int k = 0; k < top; ++k) {
    const int n = order[static_cast<std::size_t>(k)];
    const NodeCounts& c = nodes[static_cast<std::size_t>(n)];
    per_node.row()
        .cell(n)
        .cell(static_cast<long long>(c.pkts_out))
        .cell(static_cast<long long>(c.flits_out))
        .cell(static_cast<long long>(c.pkts_in))
        .cell(static_cast<long long>(c.flits_in));
  }
  per_node.print(std::cout);

  std::cout << "\ndependency depth (longest predecessor chain; roots are "
               "depth 0):\n"
            << "  max  " << max_depth << "\n"
            << "  mean "
            << util::fmt(t.records.empty()
                             ? 0.0
                             : depth_sum /
                                   static_cast<double>(t.records.size()),
                         2)
            << "\n";
  std::vector<std::uint64_t> per_depth(max_depth + 1, 0);
  for (std::uint32_t d : depth) ++per_depth[d];
  util::Table dep_tab({"depth", "records"});
  for (std::size_t d = 0; d < per_depth.size(); ++d) {
    dep_tab.row()
        .cell(static_cast<long long>(d))
        .cell(static_cast<long long>(per_depth[d]));
  }
  dep_tab.print(std::cout);
  return 0;
}

int cmd_convert(const util::Config& cfg) {
  const std::string in = cfg.get("in", std::string());
  const std::string out = cfg.get("out", std::string());
  if (in.empty() || out.empty()) return usage();
  const trace::Trace t = trace::TraceReader::read_file(in);
  trace::TraceWriter::write_file(out, t);
  std::cout << "converted " << in << " -> " << out << " (" << t.records.size()
            << " records)\n";
  return 0;
}

int cmd_generate(const util::Config& cfg) {
  const std::string kind = cfg.get("kind", std::string());
  const std::string out = cfg.get("out", std::string());
  if (kind.empty() || out.empty()) return usage();
  trace::Trace t;
  if (kind == "dnn") {
    trace::DnnPipelineParams p;
    p.nodes = cfg.get("nodes", p.nodes);
    p.layers = cfg.get("layers", p.layers);
    p.tiles_per_layer = cfg.get("tiles", p.tiles_per_layer);
    p.batches = cfg.get("batches", p.batches);
    p.batch_interval = cfg.get("interval", p.batch_interval);
    p.compute_delay = cfg.get("compute", p.compute_delay);
    p.activation_flits = cfg.get("flits", p.activation_flits);
    t = trace::generate_dnn_pipeline(p);
  } else if (kind == "allreduce") {
    trace::AllReduceRingParams p;
    p.nodes = cfg.get("nodes", p.nodes);
    p.rounds = cfg.get("rounds", p.rounds);
    p.compute_delay = cfg.get("compute", p.compute_delay);
    p.chunk_flits = cfg.get("flits", p.chunk_flits);
    p.start_time = cfg.get("start", p.start_time);
    t = trace::generate_allreduce_ring(p);
  } else if (kind == "alltoall") {
    trace::AllToAllParams p;
    p.nodes = cfg.get("nodes", p.nodes);
    p.rounds = cfg.get("rounds", p.rounds);
    p.compute_delay = cfg.get("compute", p.compute_delay);
    p.flits = cfg.get("flits", p.flits);
    p.start_time = cfg.get("start", p.start_time);
    t = trace::generate_alltoall(p);
  } else {
    LOG_ERROR << "tracectl: unknown kind '" << kind << "'";
    return usage();
  }
  trace::TraceWriter::write_file(out, t);
  const trace::TraceSummary s = t.summary();
  std::cout << "generated " << kind << " trace: " << out << " ("
            << s.records << " records, " << s.dep_edges << " dep edges, "
            << t.nodes << " nodes)\n";
  return 0;
}

int cmd_replay(const util::Config& cfg) {
  const std::string path = cfg.get("file", std::string());
  if (path.empty()) return usage();
  trace::Trace t = trace::TraceReader::read_file(path);

  noc::NetworkParams p;
  p.topology = cfg.get("topology", std::string("mesh"));
  const int size = cfg.get("size", 4);
  p.width = cfg.get("width", size);
  p.height = cfg.get("height", size);
  p.seed = cfg.get("seed", 1);
  if (p.width * p.height < t.nodes) {
    LOG_ERROR << "tracectl: trace needs " << t.nodes << " nodes, network has "
              << p.width * p.height << " (pass size=/width=/height=)";
    return 1;
  }

  trace::TraceWorkloadParams tw;
  tw.rate_scale = cfg.get("scale", 1.0);
  noc::Network net(p);
  trace::TraceWorkload workload(std::move(t), tw);
  const auto limit =
      static_cast<std::uint64_t>(cfg.get("cycle_limit", 1000000LL));
  const noc::RunResult r =
      trace::run_trace_replay(net, workload, limit);

  std::cout << "replayed " << path << " on " << p.topology << " " << p.width
            << "x" << p.height << " at scale " << util::fmt(tw.rate_scale, 2)
            << (r.completed ? "" : "  [HIT CYCLE LIMIT]") << "\n";
  util::Table tab({"metric", "value"});
  tab.row().cell("router_cycles").cell(static_cast<long long>(r.cycles));
  tab.row().cell("core_cycles").cell(r.stats.core_cycles, 1);
  tab.row().cell("packets").cell(
      static_cast<long long>(r.stats.packets_received));
  tab.row().cell("avg_latency").cell(r.stats.avg_latency, 2);
  tab.row().cell("p95_latency").cell(r.stats.p95_latency, 2);
  tab.row().cell("avg_hops").cell(r.stats.avg_hops, 2);
  tab.row().cell("energy_pJ").cell(r.stats.total_energy_pj(), 1);
  tab.print(std::cout);
  return r.completed ? 0 : 1;
}

bool wants_help(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    std::cout << kUsage;
    return 0;
  }
  if (wants_help(argc, argv)) return help(command);
  try {
    // Config::from_args skips its argv[0] slot; shift past the subcommand.
    const util::Config cfg = util::Config::from_args(argc - 1, argv + 1);
    util::init_log(cfg.get("log", std::string()));
    if (command == "info") return cmd_info(cfg);
    if (command == "stats") return cmd_stats(cfg);
    if (command == "convert") return cmd_convert(cfg);
    if (command == "generate") return cmd_generate(cfg);
    if (command == "replay") return cmd_replay(cfg);
    LOG_ERROR << "tracectl: unknown command '" << command << "'";
    return usage();
  } catch (const std::exception& e) {
    LOG_ERROR << "tracectl: " << e.what();
    return 1;
  }
}
