// Absolute pins for util::Fnv1a64 and the persisted hashes built on it.
// Fingerprints (`pin =`), scenario content hashes and fleet result keys
// (result-file names) outlive the process, so a drift would orphan every
// results directory and break every pin while each run stays self-consistent.
// The library values were captured from the hand-rolled hashes it replaced.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fleet/fleet.h"
#include "nn/layers.h"
#include "rl/policy_io.h"
#include "scenario/scenario_io.h"
#include "util/fnv.h"

namespace drlnoc {
namespace {

TEST(Fnv1a64, PinnedOutputsForBothBases) {
  struct Pin {
    const char* text;
    const char* repo;
    const char* standard;
  };
  for (const Pin& p : {Pin{"", "14650fb0739d0383", "cbf29ce484222325"},
                       Pin{"a", "44bd8ad473cd9906", "af63dc4c8601ec8c"},
                       Pin{"foobar", "88fad7c0a8ff07f2", "85944171f73967e8"}}) {
    EXPECT_EQ(util::hex16(util::Fnv1a64().bytes(p.text).value()), p.repo);
    EXPECT_EQ(rl::policy_fingerprint(p.text), p.repo);
    EXPECT_EQ(util::hex16(util::Fnv1a64(util::Fnv1a64::kStandardBasis)
                              .bytes(p.text)
                              .value()),
              p.standard);
  }
  EXPECT_EQ(util::hex16(0x1f), "000000000000001f");
  EXPECT_TRUE(util::is_hex16("0123456789abcdef"));
  EXPECT_FALSE(util::is_hex16("0123456789ABCDEF"));
  EXPECT_FALSE(util::is_hex16("0123456789abcdef0"));
}

TEST(HashPins, PersistedHashesOfFixedInputs) {
  // A policy checkpoint: its fingerprint is what `pin =` values hold.
  util::Rng rng(1);
  nn::Mlp net({3, 4, 2}, nn::Activation::kTanh, rng, /*dueling=*/true);
  double v = -1.0;  // weights set by hand: the pin ignores the initialiser
  for (std::size_t s = 0; s < net.num_param_slots(); ++s) {
    for (double& w : net.param(s).raw()) {
      w = v;
      v += 0.125;
    }
  }
  std::ostringstream blob;
  rl::write_policy(blob, net, {"0123456789abcdef", "v1.0"});
  EXPECT_EQ(rl::policy_fingerprint(blob.str()), "6ff0866dea4296cc");

  // A scenario: its content hash is stamped into policy headers.
  const scenario::Scenario s = scenario::ScenarioReader::read_text(
      "drlsc 1\nname = pinned\nwidth = 4\nheight = 4\nseed = 3\n"
      "duration = 4000\ntenants = 2\ntenant0.name = lc\n"
      "tenant0.workload = steady\ntenant0.rate = 0.03\ntenant0.nodes = 0-7\n"
      "tenant0.qos = latency_critical\ntenant0.p95_target = 300\n"
      "tenant1.workload = phased\ntenant1.phases = 1\n"
      "tenant1.phase0.rate = 0.01\ntenant1.phase0.duration = 1000\n"
      "tenant1.stop = 3500\n[faults]\nseed = 4\nlink_fault_rate = 0.001\n"
      "[churn]\nseed = 7\narrival_rate = 0.001\ncapacity = 2\ntemplates = 1\n"
      "template0.tenant = 1\ntemplate0.lifetime = fixed\n"
      "template0.lifetime_mean = 500\n");
  EXPECT_EQ(scenario::content_hash_hex(s), "a4c87b328e5692e4");

  // Fleet result keys: they name every result file in a results directory.
  fleet::ScenarioSpace space;
  space.spec_text =
      "drlfs 1\nname = pinned\nbase = base.drlsc\nseeds = 2\naxes = 1\n"
      "axis0.key = tenant0.rate\naxis0.values = 0.02,0.05\n";
  fleet::FleetParams params;
  params.controller = "drl";
  params.policy_blob = "drlpol 1\nweights";
  params.epoch_cycles = 256;
  params.epochs = 4;
  EXPECT_EQ(fleet::result_key(space, 3, params), "21bda3887822ba4e");
  params.controller = "heuristic";
  params.policy_blob.clear();
  params.qos_features = true;
  EXPECT_EQ(fleet::result_key(space, 0, params), "3f4786e73f9b05a0");
}

}  // namespace
}  // namespace drlnoc
