// fleet_t8: a churned and faulted scenario space in the style of
// bench/table8_fleet — axes churn.seed x churn.capacity x
// faults.link_fault_rate, 12 points of 12 epochs x 512 cycles on an 8x8
// mesh — evaluated by the heuristic
// controller through fleet::run_fleet on an ExperimentRunner into a fresh
// results directory, then load_results and score_fleet. Many short
// scenarios make per-point set-up visible: env construction with its power
// calibration, churn expansion, the fault model and result-file I/O. The
// digest is the scorecard JSON.
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fleet/fleet.h"
#include "fleet/scenario_space.h"
#include "fleet/scorecard.h"
#include "harness.h"

namespace drlnoc::e2e {
namespace {

constexpr int kSize = 8;
constexpr int kEpochs = 12;
constexpr std::uint64_t kEpochCycles = 512;

void write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  if (!os.flush()) throw std::runtime_error("fleet_t8: cannot write " + path);
}

class Fleet final : public Workload {
 public:
  explicit Fleet(const WorkloadOptions& o)
      : o_(o),
        epochs_(o.smoke ? 4 : kEpochs),
        spec_path_(o.workdir + "/fleet.drlfs"),
        results_dir_(o.workdir + "/results") {}

  // Churn is saturated: arrivals come far faster than slots free, so every
  // admission slot is busy for the whole run and the churn seed moves only
  // the start/stop times of the clones, not how many are active. With
  // Poisson arrivals and long exponential lifetimes instead, the offered
  // load of the space varied by 10% (IQR / median) across bench seeds, and
  // wall_s with it.
  void prepare() override {
    std::ostringstream base;
    base << "drlsc 1\n"
         << "name = fleet_base\n"
         << "topology = mesh\n"
         << "width = " << kSize << "\n"
         << "height = " << kSize << "\n"
         << "seed = " << derive_seed(o_.seed, 21) % 1000000007ULL << "\n"
         << "duration = 60000\n"
         << "tenants = 2\n"
         << "tenant0.name = critical\n"
         << "tenant0.workload = steady\n"
         << "tenant0.pattern = uniform\n"
         << "tenant0.rate = 0.02\n"
         << "tenant0.qos = latency_critical\n"
         << "tenant0.p95_target = 300\n"
         << "tenant1.name = background\n"
         << "tenant1.workload = steady\n"
         << "tenant1.pattern = uniform\n"
         << "tenant1.rate = 0.02\n"
         << "tenant1.qos = background\n"
         << "\n[churn]\n"
         << "seed = " << derive_seed(o_.seed, 22) % 1000000007ULL << "\n"
         << "arrival_rate = 0.01\n"
         << "horizon = " << (epochs_ + 1) * kEpochCycles << "\n"
         << "capacity = 2\n"
         << "max_arrivals = 64\n"
         << "templates = 1\n"
         << "template0.tenant = 1\n"
         << "template0.lifetime = uniform\n"
         << "template0.lifetime_min = 500\n"
         << "template0.lifetime_max = 1500\n";
    write_text(o_.workdir + "/base.drlsc", base.str());

    std::string churn_seeds;
    for (int k = 0; k < (o_.smoke ? 2 : 3); ++k) {
      if (k > 0) churn_seeds += ",";
      churn_seeds +=
          std::to_string(derive_seed(o_.seed, 23 + k) % 1000000007ULL);
    }
    std::ostringstream spec;
    spec << "drlfs 1\n"
         << "name = fleet_t8\n"
         << "base = base.drlsc\n"
         << "seeds = 1\n"
         << "axes = " << (o_.smoke ? 2 : 3) << "\n"
         << "axis0.key = churn.seed\n"
         << "axis0.values = " << churn_seeds << "\n"
         << "axis1.key = churn.capacity\n"
         << "axis1.values = 1,2\n";
    if (!o_.smoke) {
      spec << "axis2.key = faults.link_fault_rate\n"
           << "axis2.values = 0,0.0005\n";
    }
    write_text(spec_path_, spec.str());
  }

  RepResult run(bool traced) override {
    RepResult r;
    std::filesystem::remove_all(results_dir_);
    std::unique_ptr<TracedScope> scope;
    if (traced) scope = std::make_unique<TracedScope>();
    Layers& l = r.layers;
    double load_s = 0.0, run_s = 0.0, score_s = 0.0;

    const auto t0 = Clock::now();
    fleet::ScenarioSpace space;
    {
      Span s(load_s);
      space = fleet::ScenarioSpaceReader::read_file(spec_path_);
    }
    const auto t1 = Clock::now();
    r.setup_s = seconds_between(t0, t1);

    const double cpu0 = process_cpu_s();
    fleet::FleetParams fp;
    fp.controller = "heuristic";
    fp.epochs = epochs_;
    fp.epoch_cycles = kEpochCycles;
    fp.results_dir = results_dir_;
    {
      Span s(run_s);
      fleet::run_fleet(space, fp, core::ExperimentRunner(kThreads));
    }
    std::string card_json;
    std::size_t loaded = 0, scored = 0;
    {
      Span s(score_s);
      const auto results = fleet::load_results(space, fp);
      const fleet::Scorecard card =
          fleet::score_fleet(results, space.size(), space.name);
      std::ostringstream os;
      fleet::write_scorecard_json(os, card);
      card_json = os.str();
      loaded = results.size();
      scored = card.scored;
    }
    r.wall_s = seconds_between(t1, Clock::now());
    r.cpu_s = process_cpu_s() - cpu0;
    r.ops = space.size();

    Digest d;
    d.str(card_json);
    r.digest = d.value();
    std::size_t files = 0;
    double bytes = 0.0;
    for (const auto& entry :
         std::filesystem::directory_iterator(results_dir_)) {
      if (entry.path().extension() == fleet::kFleetResultExtension) {
        ++files;
        bytes += static_cast<double>(entry.file_size());
      }
    }
    if (files != space.size() || loaded != space.size() ||
        scored != space.size()) {
      r.failures.push_back(
          "expected " + std::to_string(space.size()) + " results, found " +
          std::to_string(files) + " files, loaded " + std::to_string(loaded) +
          ", scored " + std::to_string(scored));
    }
    if (!traced) return r;

    // core::evaluate's profiler phase includes its Network::step time, and
    // the profiler cannot tell those steps from the power calibration's
    // (which run in env construction, before it), so the evaluation time is
    // reported inclusive, like fleet.run.busy_s, and is not a self-time.
    // fleet.run.busy_s minus it is the per-point set-up: churn expansion,
    // env construction with calibration, and the result-file write.
    const double useful = static_cast<double>(
        space.size() * static_cast<std::size_t>(fp.epochs + 1) * kEpochCycles);
    l["scenario.load.busy_s"] = load_s;
    l["core.evaluate.busy_s"] = static_cast<double>(
        obs::Profiler::instance().totals(obs::Phase::kEvaluate).ns) * 1e-9;
    l["fleet.points"] = static_cast<double>(space.size());
    l["fleet.run.busy_s"] = run_s;
    l["fleet.score.busy_s"] = score_s;
    l["fleet.result_bytes"] = bytes;
    scope->finish(r, kSize * kSize, useful, 0.0,
                  {"scenario.load.busy_s", "fleet.score.busy_s"});
    l["core.calibrate.cycles"] = l["noc.step.cycles"] - useful;
    return r;
  }

 private:
  WorkloadOptions o_;
  int epochs_;
  std::string spec_path_;
  std::string results_dir_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(const WorkloadOptions& o) {
  return std::make_unique<Fleet>(o);
}

}  // namespace drlnoc::e2e
