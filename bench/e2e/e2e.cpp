// e2e: end-to-end host-time benchmark of the four workflows users run —
// a scheduled scenario (serve_16x16), a T6 train (train_t6), a T8 fleet
// sweep (fleet_t8) and a `.drltrb` replay (replay_dnn_16x16). See README.md.
//
//   e2e                                  every workload, one child process each
//   e2e workload=NAME [seed=S] [seconds=T] [layers=1] [out=FILE]
//   e2e smoke=1                          every workload at ~1/50 size, checked
//
// A run repeats one fixed unit of work ("repetition") of the workload until
// `seconds` have elapsed, after one untimed warm-up repetition, and reports
// medians over the timed repetitions, so the numbers stay comparable at any
// run length. Every repetition's output digest must equal the first one's
// (and, at seed 1, the pinned digest below); layers=1 alternates untraced
// and traced repetitions and reports the per-layer metrics of the traced
// ones.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/scorecard.h"
#include "harness.h"
#include "util/config.h"

extern char** environ;

using namespace drlnoc;
using namespace drlnoc::e2e;

namespace {

struct WorkloadDef {
  const char* name;
  std::unique_ptr<Workload> (*make)(const WorkloadOptions&);
  /// Output digest of one full-size repetition at seed 1.
  std::uint64_t pinned;
};

const WorkloadDef kWorkloads[] = {
    {"serve_16x16", make_serve, 0xa0a834e09245a37bULL},
    {"train_t6", make_train, 0x7028466a36fb3d0bULL},
    {"fleet_t8", make_fleet, 0x7475046cd06f9747ULL},
    {"replay_dnn_16x16", make_replay, 0x4c11179e38ba88b9ULL},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, measured on untraced repetitions.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics (layers=1). Every workload reports every entry; a layer
/// the workload leaves idle (or cannot observe) reads 0. Values are means
/// per traced repetition, except the two epoch percentiles, which pool the
/// timed untraced epochs of the run.
const MetricDef kLayers[] = {
    {"noc.step.cycles", "count"},
    {"noc.step.busy_s", "s"},
    {"noc.step.ns_per_node_cycle", "ns"},
    {"noc.active_fraction", "ratio"},
    {"noc.packets_delivered", "count"},
    {"noc.drain.busy_s", "s"},
    {"noc.reconfig.calls", "count"},
    {"noc.reconfig.changes", "count"},
    {"noc.reconfig.busy_s", "s"},
    {"noc.build.busy_s", "s"},
    {"scenario.load.busy_s", "s"},
    {"scenario.inject.polls", "count"},
    {"scenario.inject.packets", "count"},
    {"scenario.inject.hit_ratio", "ratio"},
    {"scenario.inject.busy_s", "s"},
    {"trace.read.busy_s", "s"},
    {"trace.read.records", "count"},
    {"trace.build.busy_s", "s"},
    {"trace.inject.polls", "count"},
    {"trace.inject.packets", "count"},
    {"trace.inject.hit_ratio", "ratio"},
    {"trace.inject.busy_s", "s"},
    {"trace.delivered", "count"},
    {"core.calibrate.busy_s", "s"},
    {"core.calibrate.cycles", "count"},
    {"core.useful_cycle_ratio", "ratio"},
    {"core.decide.busy_s", "s"},
    {"core.features.busy_s", "s"},
    {"core.reward.busy_s", "s"},
    {"core.env_step.self_s", "s"},
    {"core.rollout.busy_s", "s"},
    {"core.evaluate.busy_s", "s"},
    {"rl.learn.busy_s", "s"},
    {"rl.learn.steps", "count"},
    {"rl.replay_sample.busy_s", "s"},
    {"fleet.points", "count"},
    {"fleet.run.busy_s", "s"},
    {"fleet.score.busy_s", "s"},
    {"fleet.result_bytes", "bytes"},
    {"epoch_ms_p50", "ms"},
    {"epoch_ms_p95", "ms"},
    {"unattributed_s", "s"},
    {"obs.traced_overhead", "ratio"},
};

/// Metric values of one run, in catalogue order.
using Metrics = std::vector<std::pair<MetricDef, double>>;

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Median of f(r) over reps[first..].
double median_of(const std::vector<RepResult>& reps, std::size_t first,
                 const std::function<double(const RepResult&)>& f) {
  std::vector<double> xs;
  for (std::size_t i = first; i < reps.size(); ++i) xs.push_back(f(reps[i]));
  return fleet::quantile(xs, 0.5);
}

RepResult guarded_run(Workload& w, bool traced) {
  try {
    return w.run(traced);
  } catch (const std::exception& e) {
    RepResult r;
    r.ops = 1;
    r.failures.push_back(std::string("exception: ") + e.what());
    return r;
  }
}

/// Removes a directory tree when the scope ends.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The JSON text that opens one metric entry: `"name": {"value": `.
std::string metric_key(const char* name) {
  std::string key = "\"";
  key += name;
  key += "\": {\"value\": ";
  return key;
}

std::string metrics_json(const Metrics& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += metric_key(ms[i].first.name);
    out += number(ms[i].second);
    out += ", \"unit\": \"";
    out += ms[i].first.unit;
    out += "\"}";
  }
  return out + "}";
}

/// Outcome of the output checks of one run.
struct Checked {
  std::uint64_t reference = 0;  ///< the digest every repetition reproduces
  std::uint64_t attempted = 0;  ///< operations over all repetitions
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< one message per failure
};

/// Checks every repetition's outputs: its own invariants, the digest of the
/// first passing untraced repetition (which, at seed 1, must also equal the
/// pinned digest), and for traced repetitions that the layer self-times do
/// not exceed the traced wall time.
Checked check_outputs(const WorkloadDef& def, bool pinned,
                      std::vector<RepResult>& plain,
                      std::vector<RepResult>& traced) {
  Checked c;
  for (const RepResult& r : plain) {
    if (r.failures.empty()) {
      c.reference = r.digest;
      break;
    }
  }
  const bool pin_mismatch = pinned && c.reference != def.pinned;
  if (pin_mismatch) {
    c.problems.push_back("digest " + hex16(c.reference) + " != pinned " +
                         hex16(def.pinned));
  }
  for (auto* reps : {&plain, &traced}) {
    const char* kind = reps == &plain ? "untraced" : "traced";
    for (RepResult& r : *reps) {
      if (r.failures.empty() && r.digest != c.reference) {
        r.failures.push_back(std::string(kind) + " digest " +
                             hex16(r.digest) + " != " + hex16(c.reference));
      }
      if (r.failures.empty() && reps == &traced &&
          r.layers.at("unattributed_s") < -0.05 * (r.setup_s + r.wall_s)) {
        r.failures.push_back("layer self-times exceed the traced wall time");
      }
      c.attempted += r.ops;
      if (pin_mismatch || !r.failures.empty()) c.failed += r.ops;
      c.problems.insert(c.problems.end(), r.failures.begin(),
                        r.failures.end());
    }
  }
  return c;
}

/// Per-layer metrics of a layers=1 run: means over the traced repetitions,
/// the epoch percentiles of the timed untraced epochs, and the tracing
/// overhead (median traced over median untraced repetition time).
Metrics layer_metrics(const std::vector<RepResult>& plain,
                      std::size_t first_timed,
                      const std::vector<RepResult>& traced) {
  std::vector<double> epochs;
  for (std::size_t i = first_timed; i < plain.size(); ++i) {
    epochs.insert(epochs.end(), plain[i].epoch_ms.begin(),
                  plain[i].epoch_ms.end());
  }
  const auto total = [](const RepResult& r) { return r.setup_s + r.wall_s; };
  Metrics out;
  for (const MetricDef& m : kLayers) {
    const std::string key = m.name;
    double v = 0.0;
    if (key == "epoch_ms_p50") {
      v = fleet::quantile(epochs, 0.50);
    } else if (key == "epoch_ms_p95") {
      v = fleet::quantile(epochs, 0.95);
    } else if (key == "obs.traced_overhead") {
      v = median_of(traced, 0, total) / median_of(plain, first_timed, total) -
          1.0;
    } else {
      for (const RepResult& r : traced) {
        const auto it = r.layers.find(key);
        if (it != r.layers.end()) v += it->second;
      }
      v /= static_cast<double>(traced.size());
    }
    out.emplace_back(m, v);
  }
  return out;
}

int run_one(const util::Config& cfg) {
  const std::string name = cfg.get("workload", std::string());
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) def = &w;
  }
  if (def == nullptr) {
    std::cerr << "e2e: unknown workload '" << name << "'\n";
    return 2;
  }
  WorkloadOptions opts;
  opts.seed = static_cast<std::uint64_t>(cfg.get("seed", 1LL));
  opts.smoke = cfg.get("smoke", false);
  const bool layers = cfg.get("layers", false);
  const double seconds = cfg.get("seconds", 20.0);
  const ScratchDir scratch(
      cfg.get("workdir", std::string(".bench_build/work")) + "/" + name + "-" +
      std::to_string(getpid()));
  opts.workdir = scratch.path();

  const std::unique_ptr<Workload> w = def->make(opts);
  w->prepare();
  std::vector<RepResult> plain, traced;
  // The warm-up repetition fills caches and the allocator's free lists; its
  // outputs are checked like any other, its times are not reported.
  if (!opts.smoke) plain.push_back(guarded_run(*w, false));
  const std::size_t first_timed = plain.size();
  const auto start = Clock::now();
  do {
    plain.push_back(guarded_run(*w, false));
    if (layers) traced.push_back(guarded_run(*w, true));
  } while (!opts.smoke && seconds_between(start, Clock::now()) < seconds);

  const Checked checked =
      check_outputs(*def, !opts.smoke && opts.seed == 1, plain, traced);
  const auto median = [&](double RepResult::*field) {
    return median_of(plain, first_timed,
                     [field](const RepResult& r) { return r.*field; });
  };
  const Metrics e2e = {
      {kEndToEnd[0], median(&RepResult::setup_s)},
      {kEndToEnd[1], median(&RepResult::wall_s)},
      {kEndToEnd[2], median(&RepResult::cpu_s)},
      {kEndToEnd[3], peak_rss_mb()},
  };
  const Metrics layer =
      layers ? layer_metrics(plain, first_timed, traced) : Metrics{};

  for (const std::string& p : checked.problems) {
    std::cout << name << " FAILED " << p << "\n";
  }
  std::cout << name << " reps " << plain.size() - first_timed
            << " untraced (+" << first_timed << " warm-up), " << traced.size()
            << " traced\n";
  std::cout << name << " digest " << hex16(checked.reference) << "\n";
  std::cout << name << " failed_frac "
            << number(static_cast<double>(checked.failed) /
                      static_cast<double>(
                          std::max<std::uint64_t>(checked.attempted, 1)))
            << " fraction\n";
  for (const Metrics* set : {&e2e, &layer}) {
    for (const auto& [m, v] : *set) {
      std::cout << name << " " << m.name << " " << number(v) << " " << m.unit
                << "\n";
    }
  }

  const bool correct = checked.problems.empty();
  const std::string head =
      std::string("\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(checked.attempted) +
      ", \"failed\": " + std::to_string(checked.failed);
  const std::string out_path = cfg.get("out", std::string());
  if (!out_path.empty()) {
    Metrics all = e2e;
    all.insert(all.end(), layer.begin(), layer.end());
    std::ofstream os(out_path);
    os << "{\"workload\": \"" << name << "\", \"seed\": " << opts.seed
       << ", \"digest\": \"" << hex16(checked.reference) << "\", " << head
       << ", \"metrics\": " << metrics_json(all) << "}\n";
    if (!os.flush()) {
      std::cerr << "e2e: cannot write " << out_path << "\n";
      return 1;
    }
  }
  std::cout << "{" << head
            << ", \"metrics\": " << metrics_json(layers ? layer : e2e) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

/// Runs `args` as a child process of this binary and waits for it.
int spawn_self(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  std::string exe = "/proc/self/exe";
  argv.push_back(exe.data());
  std::vector<std::string> copy = args;
  for (std::string& a : copy) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(), environ) !=
      0) {
    return 127;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

/// Checks that a child's result file holds a passing result and every
/// metric of both catalogues.
bool result_shape_ok(const std::string& path, std::string& why) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  if (text.find("\"correct\": true") == std::string::npos) {
    why = "no passing result in " + path;
    return false;
  }
  for (const std::span<const MetricDef> set :
       {std::span<const MetricDef>(kEndToEnd),
        std::span<const MetricDef>(kLayers)}) {
    for (const MetricDef& m : set) {
      if (text.find(metric_key(m.name)) == std::string::npos) {
        why = path + " lacks metric " + m.name;
        return false;
      }
    }
  }
  return true;
}

int run_all(const util::Config& cfg) {
  const bool smoke = cfg.get("smoke", false);
  const std::string workdir =
      cfg.get("workdir", std::string(".bench_build/work"));
  const ScratchDir scratch(workdir + "/all-" + std::to_string(getpid()));
  int rc = 0;
  for (const WorkloadDef& w : kWorkloads) {
    std::vector<std::string> args = {std::string("workload=") + w.name,
                                     "workdir=" + workdir};
    for (const std::string key : {"seed", "seconds", "layers"}) {
      if (cfg.has(key)) args.push_back(key + "=" + cfg.get(key, std::string()));
    }
    const std::string out = scratch.path() + "/" + w.name + ".json";
    if (smoke) {
      args.push_back("smoke=1");
      args.push_back("layers=1");
      args.push_back("out=" + out);
    }
    const int code = spawn_self(args);
    std::string why;
    if (code == 0 && smoke && !result_shape_ok(out, why)) {
      std::cout << w.name << " FAILED " << why << "\n";
      rc = 1;
    }
    if (code != 0) {
      std::cout << w.name << " FAILED exit code " << code << "\n";
      rc = 1;
    }
  }
  std::cout << (rc == 0 ? "e2e: all workloads passed" : "e2e: FAILED")
            << std::endl;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Config cfg = util::Config::from_args(argc, argv);
    return cfg.has("workload") ? run_one(cfg) : run_all(cfg);
  } catch (const std::exception& e) {
    std::cerr << "e2e: " << e.what() << "\n";
    return 1;
  }
}
