// Fleet subsystem tests: churn expansion (determinism, FIFO admission under
// a capacity cap, RNG stream stability, validation, `.drlsc` round-trips,
// and the no-churn goldens staying untouched), `.drlfs` scenario spaces
// (mixed-radix index mapping, spec rejection with line numbers), result-file
// round-trips, and the headline resumability contract: a fleet run that is
// killed mid-way and resumed — at any --jobs count — produces a scorecard
// byte-identical to an uninterrupted run. PR 10 adds policy versioning:
// drl fleets record the served rl::policy_fingerprint in every result file
// and a stale policy_pin is refused up front. Also covers the
// core::summarize_metric edge cases (n = 0/1, zero variance, NaN rejection)
// that the scorecard aggregation leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env_noc.h"
#include "core/parallel.h"
#include "fleet/fleet.h"
#include "fleet/scenario_space.h"
#include "fleet/scorecard.h"
#include "rl/dqn.h"
#include "rl/policy_io.h"
#include "scenario/churn.h"
#include "scenario/scenario.h"
#include "scenario/scenario_io.h"
#include "util/versioned_text.h"

#include "hostile_corpus.h"

namespace drlnoc {
namespace {

/// Runs `fn`, expecting std::exception; returns its message ("" if none).
template <typename Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

scenario::ChurnParams basic_churn() {
  scenario::ChurnParams churn;
  churn.seed = 42;
  churn.arrival_rate = 0.002;
  churn.horizon = 10000.0;
  churn.max_arrivals = 64;
  scenario::ChurnTemplate t;
  t.tenant = 0;
  t.lifetime = "exponential";
  t.lifetime_mean = 1500.0;
  churn.templates.push_back(t);
  return churn;
}

// ------------------------------------------------------------ churn model ---

TEST(Churn, ExpansionIsDeterministic) {
  const scenario::ChurnParams churn = basic_churn();
  const auto a = scenario::expand_churn_windows(churn, 10000.0);
  const auto b = scenario::expand_churn_windows(churn, 10000.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].template_index, b[i].template_index);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].stop, b[i].stop);
  }

  scenario::ChurnParams other = churn;
  other.seed = 43;
  const auto c = scenario::expand_churn_windows(other, 10000.0);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = c[i].arrival != a[i].arrival;
  }
  EXPECT_TRUE(differs) << "different churn seeds produced identical arrivals";
}

TEST(Churn, CapacityQueuesFifo) {
  scenario::ChurnParams churn = basic_churn();
  churn.capacity = 1;
  // Fixed short lifetimes: the admission chain stays inside the horizon, so
  // several instances are admitted instead of one long-lived blocker.
  churn.templates[0].lifetime = "fixed";
  churn.templates[0].lifetime_mean = 400.0;
  const auto windows = scenario::expand_churn_windows(churn, 10000.0);
  ASSERT_GE(windows.size(), 2u);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_GE(windows[i].start, windows[i].arrival);
    EXPECT_GT(windows[i].stop, windows[i].start);
    // Capacity 1: the next instance starts no earlier than this one stops.
    if (i + 1 < windows.size()) {
      EXPECT_GE(windows[i + 1].start, windows[i].stop);
    }
  }

  // Without a cap every arrival is admitted immediately.
  churn.capacity = 0;
  for (const auto& w : scenario::expand_churn_windows(churn, 10000.0)) {
    EXPECT_EQ(w.start, w.arrival);
  }
}

TEST(Churn, CapacityDoesNotShiftRngDraws) {
  // Template + lifetime are drawn at arrival-generation time, so changing
  // the capacity cap must not perturb any arrival time or drawn lifetime —
  // only admission (start) times move.
  scenario::ChurnParams open = basic_churn();
  open.capacity = 0;
  scenario::ChurnParams capped = basic_churn();
  capped.capacity = 1;
  const auto a = scenario::expand_churn_windows(open, 10000.0);
  const auto b = scenario::expand_churn_windows(capped, 10000.0);
  // Queueing can drop instances anywhere in the sequence (queued past the
  // horizon), so match surviving capped instances to the uncapped run by
  // their (bit-exact) arrival time.
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_LE(b.size(), a.size());
  std::size_t matched = 0;
  for (const scenario::ChurnInstance& inst : b) {
    bool found = false;
    for (const scenario::ChurnInstance& ref : a) {
      if (ref.arrival == inst.arrival) {
        EXPECT_EQ(ref.template_index, inst.template_index);
        found = true;
        ++matched;
        break;
      }
    }
    EXPECT_TRUE(found) << "capped arrival " << inst.arrival
                       << " not in the uncapped stream";
  }
  EXPECT_EQ(matched, b.size());
}

TEST(Churn, ValidationRejectsBadParams) {
  const double duration = 10000.0;
  {
    scenario::ChurnParams c = basic_churn();
    c.templates.clear();
    EXPECT_NE(rejection([&] { c.validate(1, duration); })
                  .find("at least one template"),
              std::string::npos);
  }
  {
    scenario::ChurnParams c = basic_churn();
    c.templates[0].tenant = 5;
    EXPECT_NE(rejection([&] { c.validate(1, duration); }).find("out of range"),
              std::string::npos);
  }
  {
    scenario::ChurnParams c = basic_churn();
    c.templates[0].lifetime = "weibull";
    EXPECT_NE(rejection([&] { c.validate(1, duration); })
                  .find("exponential|fixed|uniform"),
              std::string::npos);
  }
  {
    scenario::ChurnParams c = basic_churn();
    c.templates[0].lifetime = "uniform";
    c.templates[0].lifetime_min = 10.0;
    c.templates[0].lifetime_max = 5.0;
    EXPECT_NE(rejection([&] { c.validate(1, duration); })
                  .find("lifetime_min <= lifetime_max"),
              std::string::npos);
  }
  {
    // arrival_rate > 0 but no finite window anywhere.
    scenario::ChurnParams c = basic_churn();
    c.horizon = 0.0;
    EXPECT_NE(rejection([&] { c.validate(1, 0.0); })
                  .find("finite arrival window"),
              std::string::npos);
  }
}

constexpr const char* kChurnScenarioText =
    "drlsc 1\n"
    "name = churny\n"
    "width = 4\n"
    "height = 4\n"
    "seed = 9\n"
    "duration = 8000\n"
    "tenants = 1\n"
    "tenant0.name = base\n"
    "tenant0.workload = steady\n"
    "tenant0.rate = 0.02\n"
    "\n"
    "[churn]\n"
    "seed = 7\n"
    "arrival_rate = 0.001\n"
    "capacity = 2\n"
    "max_arrivals = 16\n"
    "templates = 1\n"
    "template0.tenant = 0\n"
    "template0.lifetime = fixed\n"
    "template0.lifetime_mean = 2000\n";

TEST(Churn, ScenarioRoundTripReExpandsIdentically) {
  const scenario::Scenario s =
      scenario::ScenarioReader::read_text(kChurnScenarioText);
  ASSERT_TRUE(s.churn.enabled());
  EXPECT_EQ(s.num_declared_tenants(), 1);
  ASSERT_GT(s.tenants.size(), 1u) << "churn expanded no tenants";
  for (std::size_t i = 1; i < s.tenants.size(); ++i) {
    EXPECT_TRUE(s.tenants[i].churned);
    // Clone names use '@' (a '#' would start a comment in result files).
    EXPECT_NE(s.tenants[i].name.find('@'), std::string::npos);
  }

  // The writer emits the declared tenant + the [churn] block, never the
  // expanded clones; re-reading re-expands them bit-identically.
  std::ostringstream os;
  scenario::ScenarioWriter::write_text(os, s);
  const std::string written = os.str();
  EXPECT_NE(written.find("[churn]"), std::string::npos);
  EXPECT_NE(written.find("tenants = 1"), std::string::npos);
  EXPECT_EQ(written.find("@"), std::string::npos)
      << "writer leaked an expanded churn clone";

  const scenario::Scenario back = scenario::ScenarioReader::read_text(written);
  ASSERT_EQ(back.tenants.size(), s.tenants.size());
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    EXPECT_EQ(back.tenants[i].name, s.tenants[i].name);
    EXPECT_EQ(back.tenants[i].start, s.tenants[i].start);
    EXPECT_EQ(back.tenants[i].stop, s.tenants[i].stop);
  }
  std::ostringstream os2;
  scenario::ScenarioWriter::write_text(os2, back);
  EXPECT_EQ(os2.str(), written);
}

TEST(Churn, ExpandIsIdempotent) {
  scenario::Scenario s = scenario::ScenarioReader::read_text(kChurnScenarioText);
  const std::size_t expanded = s.tenants.size();
  scenario::expand_churn(s);
  scenario::expand_churn(s);
  EXPECT_EQ(s.tenants.size(), expanded);
}

TEST(Churn, NoChurnScenariosUntouched) {
  // Without a [churn] block nothing expands, the params stay inert, and the
  // writer emits no churn section — so pre-churn scenario files and their
  // golden determinism hashes are unaffected by this subsystem.
  const std::string text =
      "drlsc 1\nwidth = 4\nheight = 4\nduration = 1000\n"
      "tenants = 1\ntenant0.workload = steady\ntenant0.rate = 0.05\n";
  const scenario::Scenario s = scenario::ScenarioReader::read_text(text);
  EXPECT_FALSE(s.churn.enabled());
  EXPECT_EQ(s.tenants.size(), 1u);
  EXPECT_EQ(s.num_declared_tenants(), 1);
  std::ostringstream os;
  scenario::ScenarioWriter::write_text(os, s);
  EXPECT_EQ(os.str().find("churn"), std::string::npos);
}

// ------------------------------------------- parse errors cite line numbers ---

TEST(ScenarioParse, ErrorsReportLineNumbers) {
  // Malformed value: the strict-parse error names the key AND the line.
  const std::string bad_value =
      "drlsc 1\nwidth = 4x\nheight = 4\nduration = 1000\n"
      "tenants = 1\ntenant0.workload = steady\ntenant0.rate = 0.05\n";
  const std::string msg1 =
      rejection([&] { scenario::ScenarioReader::read_text(bad_value); });
  EXPECT_NE(msg1.find("width"), std::string::npos) << msg1;
  EXPECT_NE(msg1.find("(line 2)"), std::string::npos) << msg1;

  // Unknown key: rejected with its line.
  const std::string unknown =
      "drlsc 1\nwidth = 4\nheight = 4\nduration = 1000\n"
      "tenants = 1\ntenant0.workload = steady\ntenant0.rate = 0.05\n"
      "frobnicate = 1\n";
  const std::string msg2 =
      rejection([&] { scenario::ScenarioReader::read_text(unknown); });
  EXPECT_NE(msg2.find("frobnicate"), std::string::npos) << msg2;
  EXPECT_NE(msg2.find("(line 8)"), std::string::npos) << msg2;

  // Churn-section keys carry line numbers too.
  const std::string bad_churn = std::string(kChurnScenarioText) +
                                "template0.weight = oops\n";
  const std::string msg3 =
      rejection([&] { scenario::ScenarioReader::read_text(bad_churn); });
  EXPECT_NE(msg3.find("line 21"), std::string::npos) << msg3;

  // Override values come from the caller, not the file: no stale line cited.
  const std::string msg4 = rejection([&] {
    scenario::ScenarioReader::read_text(
        "drlsc 1\nwidth = 4\nheight = 4\nduration = 1000\n"
        "tenants = 1\ntenant0.workload = steady\ntenant0.rate = 0.05\n",
        "", {{"width", "4x"}});
  });
  EXPECT_NE(msg4.find("width"), std::string::npos) << msg4;
  EXPECT_EQ(msg4.find("(line"), std::string::npos) << msg4;
}

// --------------------------------------------------------- scenario spaces ---

/// Writes a tiny base scenario + spec under dir; returns the spec path.
std::string write_space_files(const std::string& dir,
                              const std::string& spec_body) {
  std::filesystem::create_directories(dir);
  {
    std::ofstream base(dir + "/base.drlsc");
    base << "drlsc 1\nname = sp\nwidth = 4\nheight = 4\nseed = 5\n"
            "duration = 4000\ntenants = 1\ntenant0.workload = steady\n"
            "tenant0.rate = 0.02\ntenant0.qos = latency_critical\n"
            "tenant0.p95_target = 400\n";
  }
  const std::string spec_path = dir + "/space.drlfs";
  std::ofstream spec(spec_path);
  spec << spec_body;
  return spec_path;
}

TEST(ScenarioSpace, MixedRadixIndexMapping) {
  const std::string dir = ::testing::TempDir() + "fleet_space_map";
  const std::string spec = write_space_files(
      dir,
      "drlfs 1\nname = grid\nbase = base.drlsc\nseeds = 2\naxes = 2\n"
      "axis0.key = tenant0.rate\naxis0.values = 0.01,0.03,0.05\n"
      "axis1.key = width\naxis1.count = 2\naxis1.value0 = 4\n"
      "axis1.value1 = 5\n");
  const fleet::ScenarioSpace space = fleet::ScenarioSpaceReader::read_file(spec);
  EXPECT_EQ(space.size(), 2u * 3u * 2u);

  // Seed replica is innermost, then axes in declaration order.
  const fleet::ExpandedScenario p0 = space.point(0);
  EXPECT_EQ(p0.seed_offset, 0u);
  EXPECT_EQ(p0.overrides.at("tenant0.rate"), "0.01");
  EXPECT_EQ(p0.overrides.at("width"), "4");
  const fleet::ExpandedScenario p1 = space.point(1);
  EXPECT_EQ(p1.seed_offset, 1u);
  EXPECT_EQ(p1.overrides.at("tenant0.rate"), "0.01");
  const fleet::ExpandedScenario p2 = space.point(2);
  EXPECT_EQ(p2.seed_offset, 0u);
  EXPECT_EQ(p2.overrides.at("tenant0.rate"), "0.03");
  const fleet::ExpandedScenario last = space.point(space.size() - 1);
  EXPECT_EQ(last.seed_offset, 1u);
  EXPECT_EQ(last.overrides.at("tenant0.rate"), "0.05");
  EXPECT_EQ(last.overrides.at("width"), "5");

  // expand() applies the overrides and offsets net.seed by the replica.
  const fleet::ExpandedScenario e1 = space.expand(1);
  EXPECT_EQ(e1.scenario.net.seed, 5u + 1u);
  EXPECT_EQ(e1.scenario.name, e1.label);
  EXPECT_NE(e1.label.find("grid[1]"), std::string::npos) << e1.label;
  EXPECT_NE(e1.label.find("seed+1"), std::string::npos) << e1.label;

  EXPECT_NE(rejection([&] { space.expand(space.size()); }).find("out of"),
            std::string::npos);
}

TEST(ScenarioSpace, SpecRejectionMessages) {
  const std::string dir = ::testing::TempDir() + "fleet_space_err";
  // values= and count= on the same axis are mutually exclusive.
  EXPECT_NE(
      rejection([&] {
        fleet::ScenarioSpaceReader::read_file(write_space_files(
            dir + "/a",
            "drlfs 1\nname = x\nbase = base.drlsc\naxes = 1\n"
            "axis0.key = width\naxis0.values = 4,5\naxis0.count = 2\n"
            "axis0.value0 = 4\naxis0.value1 = 5\n"));
      }).find("mutually exclusive"),
      std::string::npos);

  // Unknown keys are rejected with their line number.
  const std::string msg = rejection([&] {
    fleet::ScenarioSpaceReader::read_file(write_space_files(
        dir + "/b",
        "drlfs 1\nname = x\nbase = base.drlsc\nseeeds = 2\n"));
  });
  EXPECT_NE(msg.find("seeeds"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;

  EXPECT_NE(
      rejection([&] {
        fleet::ScenarioSpaceReader::read_file(write_space_files(
            dir + "/c", "drlfs 1\nname = x\nbase = base.drlsc\nseeds = 0\n"));
      }).find("seeds must be >= 1"),
      std::string::npos);

  EXPECT_NE(
      rejection([&] {
        fleet::ScenarioSpaceReader::read_file(write_space_files(
            dir + "/d",
            "drlfs 1\nname = x\nbase = base.drlsc\naxes = 2\n"
            "axis0.key = width\naxis0.values = 4,5\n"
            "axis1.key = width\naxis1.values = 6,7\n"));
      }).find("duplicate axis key"),
      std::string::npos);

  EXPECT_NE(rejection([&] {
              fleet::ScenarioSpaceReader::read_text("drlfs 1\nname = x\n");
            }).find("base"),
            std::string::npos);
}

// ------------------------------------- one reader behind every text format ---

TEST(VersionedText, EveryFormatSharesTheRules) {
  // Each loader takes a whole file text and returns a digest of what it
  // parsed, so plain and decorated spellings of one file can be compared.
  const std::string dir = ::testing::TempDir() + "fleet_versioned_text";
  struct Format {
    std::string magic, body, bad_value;
    std::function<std::string(const std::string&)> load;
  };
  const std::vector<Format> formats = {
      {"drlsc",
       "width = 4\nheight = 4\nduration = 1000\ntenants = 1\n"
       "tenant0.workload = steady\ntenant0.rate = 0.05\n",
       "max_vcs = 4x\n",
       [](const std::string& text) {
         return scenario::content_hash_hex(
             scenario::ScenarioReader::read_text(text));
       }},
      {"drlfs",
       "name = grid\nbase = base.drlsc\naxes = 1\naxis0.key = tenant0.rate\n"
       "axis0.values = 0.01,0.02\n",
       "seeds = 2x\n",
       [&](const std::string& text) {
         const std::string spec = write_space_files(dir, text);
         const fleet::ScenarioSpace space =
             fleet::ScenarioSpaceReader::read_file(spec);
         return space.point(0).label + "|" + space.point(1).label;
       }},
      {"drlfr",
       "index = 3\nlabel = grid[3] tenant0.rate=0.02 seed+1\nseed = 6\n"
       "tenants = 1\ntenant0.name = t@0\n",
       "retries = 1.5\n",
       [&](const std::string& text) {
         const std::string path = dir + "/r" + fleet::kFleetResultExtension;
         std::ofstream(path, std::ios::binary) << text;
         const auto r = fleet::read_result_file(path);
         return r->label + "|" + std::to_string(r->seed) + "|" +
                r->tenants.at(0).name;
       }},
  };
  const auto lines = [](const std::string& text) {
    return std::to_string(std::count(text.begin(), text.end(), '\n'));
  };
  std::filesystem::create_directories(dir);
  for (const Format& f : formats) {
    SCOPED_TRACE(f.magic);
    const std::string plain = f.magic + " 1\n" + f.body;
    const std::string digest = f.load(plain);
    // CRLF endings, comment lines and trailing comments change nothing.
    EXPECT_EQ(f.load("# lead\r\n" + std::regex_replace(plain, std::regex("\n"),
                                                          "  # note\r\n")),
              digest);

    const std::string magic =
        "missing magic line (expected '" + f.magic + " 1')";
    EXPECT_NE(rejection([&] { f.load(f.body); }).find(magic),
              std::string::npos);
    EXPECT_NE(rejection([&] { f.load(""); }).find(magic), std::string::npos);
    EXPECT_NE(rejection([&] { f.load(f.magic + " 2\n" + f.body); })
                  .find("unsupported format version 2"),
              std::string::npos);
    const std::string no_eq = plain + "no equals sign\n";
    EXPECT_NE(rejection([&] { f.load(no_eq); })
                  .find("bad config line " + lines(no_eq) + ": no equals sign"),
              std::string::npos);
    const std::string bad = plain + f.bad_value;
    const std::string msg = rejection([&] { f.load(bad); });
    EXPECT_NE(msg.find("(line " + lines(bad) + ")"), std::string::npos) << msg;
  }
}

// ------------------------------------------------- summarize_metric edges ---

TEST(SummarizeMetric, EdgeCases) {
  const core::MetricSummary empty = core::summarize_metric({});
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.stddev, 0.0);
  EXPECT_EQ(empty.ci95, 0.0);

  // n = 1: the value itself, with exactly zero spread.
  const core::MetricSummary one = core::summarize_metric({3.25});
  EXPECT_EQ(one.mean, 3.25);
  EXPECT_EQ(one.stddev, 0.0);
  EXPECT_EQ(one.ci95, 0.0);

  // Zero variance: stddev and ci95 are exactly zero, not a rounding residue.
  const core::MetricSummary flat = core::summarize_metric({7.5, 7.5, 7.5, 7.5});
  EXPECT_EQ(flat.mean, 7.5);
  EXPECT_EQ(flat.stddev, 0.0);
  EXPECT_EQ(flat.ci95, 0.0);

  // NaN is an upstream bug, not a sample.
  EXPECT_THROW(
      core::summarize_metric({1.0, std::numeric_limits<double>::quiet_NaN()}),
      std::invalid_argument);
}

// --------------------------------------------------------------- fleet runs ---

fleet::ScenarioSpace tiny_space(const std::string& dir) {
  const std::string spec = write_space_files(
      dir,
      "drlfs 1\nname = tiny\nbase = base.drlsc\nseeds = 2\naxes = 1\n"
      "axis0.key = tenant0.rate\naxis0.values = 0.02,0.05\n");
  return fleet::ScenarioSpaceReader::read_file(spec);
}

fleet::FleetParams tiny_params(const std::string& results_dir) {
  fleet::FleetParams p;
  p.controller = "heuristic";
  p.epoch_cycles = 128;
  p.epochs = 2;
  p.results_dir = results_dir;
  return p;
}

TEST(FleetResult, FileRoundTripIsExact) {
  const std::string dir = ::testing::TempDir() + "fleet_result_rt";
  std::filesystem::create_directories(dir);
  fleet::FleetScenarioResult r;
  r.index = 3;
  r.label = "tiny[3] tenant0.rate=0.05 seed+1";
  r.seed = 6;
  r.reward = 0.1;  // not exactly representable — precision 17 must hold it
  r.mean_latency = 123.456789012345678;
  r.p95_latency = 400.25;
  r.mean_power_mw = 1e-17;
  r.mean_edp = 3.0;
  r.flits_dropped = 7;
  r.retries = 2;
  fleet::FleetTenantOutcome t;
  t.name = "base@0";
  t.qos = "latency_critical";
  t.slo_hit_rate = 2.0 / 3.0;
  t.p95_latency = 333.5;
  t.accepted_rate = 0.9999999999999999;
  r.tenants.push_back(t);

  const std::string path = dir + "/r" + fleet::kFleetResultExtension;
  fleet::write_result_file(path, r);
  const auto back = fleet::read_result_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->index, r.index);
  EXPECT_EQ(back->label, r.label);
  EXPECT_EQ(back->seed, r.seed);
  EXPECT_EQ(back->reward, r.reward);
  EXPECT_EQ(back->mean_latency, r.mean_latency);
  EXPECT_EQ(back->mean_power_mw, r.mean_power_mw);
  EXPECT_EQ(back->flits_dropped, r.flits_dropped);
  ASSERT_EQ(back->tenants.size(), 1u);
  EXPECT_EQ(back->tenants[0].name, t.name);
  EXPECT_EQ(back->tenants[0].slo_hit_rate, t.slo_hit_rate);
  EXPECT_EQ(back->tenants[0].accepted_rate, t.accepted_rate);

  EXPECT_FALSE(fleet::read_result_file(dir + "/missing.drlfr").has_value());
}

TEST(FleetResult, KeyCoversEverythingThatChangesTheOutcome) {
  const std::string dir = ::testing::TempDir() + "fleet_keys";
  const fleet::ScenarioSpace space = tiny_space(dir);
  const fleet::FleetParams base = tiny_params(dir + "/results");
  const std::string k = fleet::result_key(space, 0, base);

  EXPECT_NE(fleet::result_key(space, 1, base), k);
  fleet::FleetParams other = base;
  other.controller = "static-max";
  EXPECT_NE(fleet::result_key(space, 0, other), k);
  other = base;
  other.epochs = 3;
  EXPECT_NE(fleet::result_key(space, 0, other), k);
  other = base;
  other.qos_features = true;
  EXPECT_NE(fleet::result_key(space, 0, other), k);
}

std::string score_bytes(const fleet::ScenarioSpace& space,
                        const fleet::FleetParams& params) {
  const fleet::Scorecard card = fleet::score_fleet(
      fleet::load_results(space, params), space.size(), space.name, 2);
  std::ostringstream os;
  fleet::write_scorecard_json(os, card);
  return os.str();
}

TEST(FleetRun, ResumedScorecardByteIdenticalAtAnyJobs) {
  // TempDir persists across runs; stale result files would turn every run
  // into a resume and break the ran/skipped accounting below.
  const std::string dir = ::testing::TempDir() + "fleet_resume";
  std::filesystem::remove_all(dir);
  const fleet::ScenarioSpace space = tiny_space(dir);
  core::ExperimentRunner jobs1(1), jobs2(2), jobs8(8);

  // Reference: one uninterrupted run at jobs = 1.
  fleet::FleetParams ref = tiny_params(dir + "/ref");
  const fleet::FleetRunOutcome full = fleet::run_fleet(space, ref, jobs1);
  EXPECT_EQ(full.ran, space.size());
  EXPECT_EQ(full.skipped, 0u);
  // Every point has its own (seed, tenant0.rate): no calibration is shared.
  EXPECT_EQ(full.calibrations, space.size());
  const std::string want = score_bytes(space, ref);
  EXPECT_NE(want.find("\"missing\": 0"), std::string::npos);

  // Interrupted runs: complete the fleet, delete half the result files (the
  // "killed mid-run" state), resume at several jobs counts. Each resumed
  // scorecard must be byte-identical to the uninterrupted one.
  int trial = 0;
  for (core::ExperimentRunner* resume_runner : {&jobs1, &jobs2, &jobs8}) {
    fleet::FleetParams p =
        tiny_params(dir + "/resume" + std::to_string(trial++));
    fleet::run_fleet(space, p, jobs2);
    std::size_t deleted = 0;
    for (std::size_t index = 0; index < space.size(); index += 2) {
      const std::string path = fleet::result_path(
          p.results_dir, index, fleet::result_key(space, index, p));
      ASSERT_TRUE(std::filesystem::remove(path)) << path;
      ++deleted;
    }
    ASSERT_EQ(deleted, space.size() / 2);

    const fleet::FleetRunOutcome resumed =
        fleet::run_fleet(space, p, *resume_runner);
    EXPECT_EQ(resumed.ran, deleted);
    EXPECT_EQ(resumed.skipped, space.size() - deleted);
    // The deleted points differ in tenant0.rate, so none share a reference.
    EXPECT_EQ(resumed.calibrations, deleted);
    EXPECT_EQ(score_bytes(space, p), want)
        << "resumed scorecard diverged (trial " << trial << ")";
  }
}

/// A churned two-tenant base under axes that never enter the power
/// calibration: churn seed and capacity, and the link fault rate.
fleet::ScenarioSpace churn_fault_space(const std::string& dir) {
  std::filesystem::create_directories(dir);
  {
    std::ofstream base(dir + "/base.drlsc");
    base << "drlsc 1\nname = memo\nwidth = 4\nheight = 4\nseed = 5\n"
            "duration = 4000\ntenants = 2\n"
            "tenant0.name = critical\ntenant0.workload = steady\n"
            "tenant0.rate = 0.02\ntenant0.qos = latency_critical\n"
            "tenant0.p95_target = 400\n"
            "tenant1.name = background\ntenant1.workload = steady\n"
            "tenant1.rate = 0.04\ntenant1.qos = background\n"
            "\n[churn]\nseed = 11\narrival_rate = 0.002\ncapacity = 2\n"
            "templates = 1\ntemplate0.tenant = 1\n"
            "template0.lifetime = exponential\n"
            "template0.lifetime_mean = 1500\n";
  }
  const std::string spec = dir + "/space.drlfs";
  {
    std::ofstream os(spec);
    os << "drlfs 1\nname = memo\nbase = base.drlsc\nseeds = 2\naxes = 3\n"
          "axis0.key = churn.seed\naxis0.values = 11,12\n"
          "axis1.key = churn.capacity\naxis1.values = 1,2\n"
          "axis2.key = faults.link_fault_rate\naxis2.values = 0,0.0005\n";
  }
  return fleet::ScenarioSpaceReader::read_file(spec);
}

core::PowerRefKey point_key(const fleet::ExpandedScenario& point) {
  core::NocEnvParams ep;
  ep.scenario = std::make_shared<scenario::Scenario>(point.scenario);
  ep.net.seed = point.scenario.net.seed;
  return core::power_ref_key(ep);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(FleetRun, CalibratesOncePerDistinctKey) {
  const std::string dir = ::testing::TempDir() + "fleet_power_memo";
  std::filesystem::remove_all(dir);  // rerun-safe: drop stale result files
  const fleet::ScenarioSpace space = churn_fault_space(dir);
  ASSERT_EQ(space.size(), 16u);

  // Churn and fault overrides leave the key alone; the seed replica moves
  // it (the traffic seed drives the calibration run).
  for (std::size_t index = 0; index < space.size(); ++index) {
    const fleet::ExpandedScenario point = space.expand(index);
    const core::PowerRefKey key = point_key(point);
    EXPECT_TRUE(key == point_key(space.expand(point.seed_offset)))
        << point.label;
    EXPECT_FALSE(key == point_key(space.expand(1 - point.seed_offset)))
        << point.label;
  }

  // The reference bytes: every point evaluated on its own, calibrating its
  // own power reference.
  const fleet::FleetParams self = tiny_params(dir + "/self");
  std::filesystem::create_directories(self.results_dir);
  std::vector<std::string> want(space.size());
  for (std::size_t index = 0; index < space.size(); ++index) {
    const std::string path = self.results_dir + "/" + std::to_string(index);
    fleet::write_result_file(
        path, fleet::evaluate_scenario(space.expand(index), self));
    want[index] = file_bytes(path);
  }

  for (const int jobs : {1, 2, 8}) {
    const fleet::FleetParams p =
        tiny_params(dir + "/jobs" + std::to_string(jobs));
    const core::ExperimentRunner runner(jobs);
    const fleet::FleetRunOutcome outcome = fleet::run_fleet(space, p, runner);
    EXPECT_EQ(outcome.ran, space.size()) << "jobs " << jobs;
    EXPECT_EQ(outcome.calibrations, 2u) << "jobs " << jobs;  // one per seed
    for (std::size_t index = 0; index < space.size(); ++index) {
      EXPECT_EQ(file_bytes(fleet::result_path(
                    p.results_dir, index, fleet::result_key(space, index, p))),
                want[index])
          << "jobs " << jobs << ", index " << index;
    }

    // A resume with nothing left to run calibrates nothing.
    const fleet::FleetRunOutcome resumed = fleet::run_fleet(space, p, runner);
    EXPECT_EQ(resumed.ran, 0u);
    EXPECT_EQ(resumed.skipped, space.size());
    EXPECT_EQ(resumed.calibrations, 0u);
  }
}

TEST(FleetRun, ShardsPartitionTheSpace) {
  const std::string dir = ::testing::TempDir() + "fleet_shards";
  std::filesystem::remove_all(dir);  // rerun-safe: drop stale result files
  const fleet::ScenarioSpace space = tiny_space(dir);
  core::ExperimentRunner jobs1(1);

  fleet::FleetParams ref = tiny_params(dir + "/ref");
  fleet::run_fleet(space, ref, jobs1);
  const std::string want = score_bytes(space, ref);

  // Two shards into one shared results dir cover the space exactly once.
  fleet::FleetParams sharded = tiny_params(dir + "/sharded");
  sharded.shards = 2;
  sharded.shard = 0;
  const fleet::FleetRunOutcome s0 = fleet::run_fleet(space, sharded, jobs1);
  sharded.shard = 1;
  const fleet::FleetRunOutcome s1 = fleet::run_fleet(space, sharded, jobs1);
  EXPECT_EQ(s0.owned + s1.owned, space.size());
  EXPECT_EQ(s0.ran + s1.ran, space.size());
  EXPECT_EQ(score_bytes(space, sharded), want);

  // Scoring a half-finished fleet reports the gap instead of hiding it.
  fleet::FleetParams partial = tiny_params(dir + "/partial");
  partial.shards = 2;
  partial.shard = 0;
  fleet::run_fleet(space, partial, jobs1);
  const fleet::Scorecard card = fleet::score_fleet(
      fleet::load_results(space, partial), space.size(), space.name, 2);
  EXPECT_EQ(card.missing, space.size() - s0.owned);
}

TEST(FleetScorecard, QuantileAndWorstRanking) {
  EXPECT_EQ(fleet::quantile({}, 0.95), 0.0);
  EXPECT_EQ(fleet::quantile({5.0}, 0.95), 5.0);
  EXPECT_EQ(fleet::quantile({1.0, 3.0}, 0.5), 2.0);
  EXPECT_EQ(fleet::quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);

  // Worst ranking: lowest min SLO hit rate first, ties by highest p95.
  std::vector<fleet::FleetScenarioResult> results(3);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].index = i;
    results[i].label = "r" + std::to_string(i);
    fleet::FleetTenantOutcome t;
    t.qos = "latency_critical";
    t.slo_hit_rate = (i == 1) ? 0.5 : 0.9;
    t.p95_latency = (i == 2) ? 900.0 : 100.0;
    results[i].tenants.push_back(t);
  }
  const fleet::Scorecard card = fleet::score_fleet(results, 3, "t", 2);
  ASSERT_EQ(card.worst.size(), 2u);
  EXPECT_EQ(card.worst[0].index, 1u);
  EXPECT_EQ(card.worst[0].min_slo_hit_rate, 0.5);
  EXPECT_EQ(card.worst[1].index, 2u);
  ASSERT_EQ(card.classes.count("latency_critical"), 1u);
  EXPECT_EQ(card.classes.at("latency_critical").worst_slo_hit_rate, 0.5);
}

// ---------------------------------------------------- policy versioning ---

/// A small DqnAgent checkpoint dimensioned for `space` under the aggregate
/// feature set `tiny_params` runs with (the only mode a fixed policy can
/// span a fleet in).
std::string tiny_policy_blob(const fleet::ScenarioSpace& space) {
  core::NocEnvParams ep;
  ep.scenario =
      std::make_shared<scenario::Scenario>(space.expand(0).scenario);
  ep.net.seed = ep.scenario->net.seed;
  ep.scenario_qos = false;
  ep.epoch_cycles = 128;
  ep.epochs_per_episode = 2;
  core::NocConfigEnv probe(ep);

  rl::DqnParams dp;
  dp.hidden = {8};
  dp.min_replay = 4;
  dp.batch_size = 2;
  rl::DqnAgent agent(probe.state_size(), probe.num_actions(), dp);
  std::ostringstream os;
  agent.save(os);
  return os.str();
}

TEST(FleetPolicy, ResultFilesRecordTheServedVersion) {
  const std::string dir = ::testing::TempDir() + "fleet_policy_ver";
  const fleet::ScenarioSpace space = tiny_space(dir);
  fleet::FleetParams params = tiny_params(dir + "/res");
  params.controller = "drl";
  params.policy_file = "tiny.drlpol";
  params.policy_blob = tiny_policy_blob(space);
  const std::string version = rl::policy_fingerprint(params.policy_blob);
  params.policy_pin = version;  // correct pin: the run must go through

  fleet::run_fleet(space, params, core::ExperimentRunner(1));
  const std::vector<fleet::FleetScenarioResult> results =
      fleet::load_results(space, params);
  ASSERT_EQ(results.size(), space.size());
  for (const fleet::FleetScenarioResult& r : results) {
    EXPECT_EQ(r.policy_version, version) << r.label;
  }

  // The key round-trips through the file verbatim.
  const std::string path = fleet::result_path(
      params.results_dir, 0, fleet::result_key(space, 0, params));
  const auto reread = fleet::read_result_file(path);
  ASSERT_TRUE(reread.has_value());
  EXPECT_EQ(reread->policy_version, version);

  // Policy-free results omit the key entirely, keeping their files
  // byte-compatible with the pre-versioning format.
  fleet::FleetParams heur = tiny_params(dir + "/res_heur");
  fleet::run_fleet(space, heur, core::ExperimentRunner(1));
  const std::string heur_path = fleet::result_path(
      heur.results_dir, 0, fleet::result_key(space, 0, heur));
  std::ifstream in(heur_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.find("policy_version"), std::string::npos);
  const auto heur_result = fleet::read_result_file(heur_path);
  ASSERT_TRUE(heur_result.has_value());
  EXPECT_TRUE(heur_result->policy_version.empty());
}

TEST(FleetPolicy, PinRejectionMessages) {
  const std::string dir = ::testing::TempDir() + "fleet_policy_pin";
  const fleet::ScenarioSpace space = tiny_space(dir);

  // A stale pin is refused before any scenario runs.
  fleet::FleetParams params = tiny_params(dir + "/res");
  params.controller = "drl";
  params.policy_blob = tiny_policy_blob(space);
  params.policy_pin = "0000000000000000";
  const std::string msg = rejection(
      [&] { fleet::run_fleet(space, params, core::ExperimentRunner(1)); });
  EXPECT_NE(msg.find("does not match the pinned version"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("0000000000000000"), std::string::npos) << msg;

  // Pinning a policy-free controller is a config contradiction, not a no-op.
  fleet::FleetParams heur = tiny_params(dir + "/res2");
  heur.policy_pin = "0000000000000000";
  EXPECT_NE(
      rejection([&] {
        fleet::run_fleet(space, heur, core::ExperimentRunner(1));
      }).find("policy_pin is only meaningful with controller=drl"),
      std::string::npos);
}

// ---------------------------------------------------------- hostile input ---

TEST(FleetHostileInput, SpecCorpus) {
  const std::string dir = ::testing::TempDir() + "fleet_hostile_spec/";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "base.drlsc")
      << "drlsc 1\nname = hb\nwidth = 4\nheight = 4\nseed = 5\n"
         "duration = 4000\ntenants = 2\n"
         "tenant0.rate = 0.02\ntenant0.qos = latency_critical\n"
         "tenant0.p95_target = 400\n"
         "tenant1.rate = 0.04\ntenant1.qos = background\n"
         "[churn]\narrival_rate = 0.0002\nmax_arrivals = 16\n"
         "templates = 1\ntemplate0.tenant = 1\n"
         "template0.lifetime = fixed\ntemplate0.lifetime_mean = 1000\n";
  const std::string spec =
      "drlfs 1\n"
      "name = hostile\n"
      "base = base.drlsc\n"
      "seeds = 2\n"
      "axes = 2\n"
      "axis0.key = tenant1.rate\n"
      "axis0.values = 0.03,0.06\n"
      "axis1.key = churn.arrival_rate\n"
      "axis1.count = 2\n"
      "axis1.value0 = 0.0001\n"
      "axis1.value1 = 0.0003\n";
  const std::string path = dir + "hostile.drlfs";
  int loaded = 0;
  int rejected = 0;
  for (const std::string& input : text_corpus(spec, 2029)) {
    const bool ok = loads_or_names_path(path, input, [](const std::string& p) {
      const fleet::ScenarioSpace space = fleet::ScenarioSpaceReader::read_file(p);
      // Every point of a loaded space expands (or names what is wrong).
      for (std::size_t i = 0; i < space.size(); ++i) {
        try {
          space.expand(i);
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()), "");
        }
      }
    });
    (ok ? loaded : rejected) += 1;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FleetHostileInput, ResultCorpus) {
  const std::string dir = ::testing::TempDir() + "fleet_hostile_result/";
  std::filesystem::create_directories(dir);
  fleet::FleetScenarioResult r;
  r.index = 5;
  r.label = "hostile[5] tenant1.rate=0.06 seed+1";
  r.seed = 6;
  r.reward = -12.5;
  r.mean_latency = 41.25;
  r.p95_latency = 97.0;
  r.mean_power_mw = 210.125;
  r.mean_edp = 3.5e6;
  r.flits_dropped = 3;
  r.retries = 2;
  r.packets_lost = 1;
  r.rerouted_hops = 9;
  r.policy_version = "0123456789abcdef";
  for (const char* name : {"critical", "background"}) {
    fleet::FleetTenantOutcome t;
    t.name = name;
    t.qos = name == std::string("critical") ? "latency_critical"
                                             : "background";
    t.slo_hit_rate = 0.75;
    t.p95_latency = 120.5;
    t.accepted_rate = 0.0125;
    r.tenants.push_back(t);
  }
  const std::string intact = dir + "intact" + fleet::kFleetResultExtension;
  fleet::write_result_file(intact, r);
  const std::string bytes = util::read_file_bytes(intact).value();

  const std::string path = dir + "hostile" + fleet::kFleetResultExtension;
  int loaded = 0;
  int rejected = 0;
  for (const std::string& input : text_corpus(bytes, 2030)) {
    const bool ok = loads_or_names_path(path, input, [](const std::string& p) {
      EXPECT_TRUE(fleet::read_result_file(p).has_value());
    });
    (ok ? loaded : rejected) += 1;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);

  // A tenant block may be all defaults, so only the cap bounds the count.
  std::string huge = bytes;
  const std::size_t at = huge.find("\ntenants = 2\n") + 11;
  huge.replace(at, 1, "2000000000");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << huge;
  EXPECT_NE(rejection([&] { fleet::read_result_file(path); })
                .find("tenants = 2000000000 is outside [0, 4096]"),
            std::string::npos);

  // A negative counter is an error naming the key, not a wrap to ~2^64.
  std::string negative = bytes;
  const std::size_t retries = negative.find("\nretries = ") + 11;
  negative.replace(retries, negative.find('\n', retries) - retries, "-1");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << negative;
  EXPECT_NE(rejection([&] { fleet::read_result_file(path); })
                .find("bad integer for retries (line "),
            std::string::npos);
}

}  // namespace
}  // namespace drlnoc
