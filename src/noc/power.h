// Analytical NoC power model in the DSENT/ORION tradition, plus the DVFS
// operating-point table. Dynamic energy is event-based (per buffer access,
// allocation, crossbar and link traversal) and scales with V²; static power
// scales with V and with the amount of un-gated storage (active VCs × active
// depth). Absolute numbers are representative, not calibrated silicon — the
// experiments report *relative* savings, which only need the monotonic
// structure (power grows with V, f, and enabled resources).
#pragma once

#include <string>
#include <vector>

#include "noc/router.h"

namespace drlnoc::noc {

/// One DVFS operating point.
struct DvfsLevel {
  double freq_ghz = 1.0;
  double voltage = 1.0;
  std::string label;
};

/// Default 4-level table; the core clock runs at the top frequency.
std::vector<DvfsLevel> default_dvfs_levels();

struct PowerParams {
  double core_freq_ghz = 2.0;  ///< reference clock for core time / latency
  double v_nom = 1.0;          ///< voltage the energy coefficients assume

  // Dynamic energy per event, in pJ at v_nom.
  double e_buffer_write = 1.2;
  double e_buffer_read = 1.0;
  double e_vc_alloc = 0.4;
  double e_sw_arb = 0.3;
  double e_xbar = 1.6;
  double e_link = 2.1;

  // Static power, in mW at v_nom.
  double p_static_router_base = 0.8;   ///< per router, un-gateable logic
  double p_static_per_vc_slot = 0.06;  ///< per active buffer slot per port
  double p_static_link = 0.4;          ///< per inter-router link

  bool operator==(const PowerParams&) const = default;
};

class PowerModel {
 public:
  PowerModel(PowerParams params, std::vector<DvfsLevel> levels);

  const PowerParams& params() const { return params_; }
  const std::vector<DvfsLevel>& levels() const { return levels_; }
  int num_levels() const { return static_cast<int>(levels_.size()); }
  const DvfsLevel& level(int idx) const;

  /// Core cycles elapsed per router cycle at the given DVFS level (>= 1).
  double clock_divisor(int level_idx) const;

  /// Dynamic energy (pJ) for the given activity at a DVFS level.
  double dynamic_energy(const RouterActivity& activity, int level_idx) const;

  /// Static energy (pJ) burned over `wall_ns` nanoseconds by a network of
  /// `routers` routers and `links` links, where `total_vc_slots` is the sum
  /// over all routers of ports x active_vcs x active_depth (per-router
  /// configurations may differ).
  double static_energy_slots(int routers, int links, double total_vc_slots,
                             int level_idx, double wall_ns) const;

 private:
  PowerParams params_;
  std::vector<DvfsLevel> levels_;
};

}  // namespace drlnoc::noc
