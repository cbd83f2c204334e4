#include "noc/power.h"

#include <cassert>
#include <stdexcept>

namespace drlnoc::noc {

std::vector<DvfsLevel> default_dvfs_levels() {
  return {
      {0.5, 0.70, "L0-0.5GHz"},
      {1.0, 0.85, "L1-1.0GHz"},
      {1.5, 1.00, "L2-1.5GHz"},
      {2.0, 1.20, "L3-2.0GHz"},
  };
}

PowerModel::PowerModel(PowerParams params, std::vector<DvfsLevel> levels)
    : params_(params), levels_(std::move(levels)) {
  if (levels_.empty()) throw std::invalid_argument("empty DVFS table");
  for (const auto& l : levels_) {
    if (l.freq_ghz <= 0.0 || l.freq_ghz > params_.core_freq_ghz + 1e-9) {
      throw std::invalid_argument(
          "DVFS frequency must be in (0, core_freq]; router clocks faster "
          "than the core clock are not modelled");
    }
  }
}

const DvfsLevel& PowerModel::level(int idx) const {
  assert(idx >= 0 && idx < num_levels());
  return levels_[static_cast<std::size_t>(idx)];
}

double PowerModel::clock_divisor(int level_idx) const {
  return params_.core_freq_ghz / level(level_idx).freq_ghz;
}

double PowerModel::dynamic_energy(const RouterActivity& a,
                                  int level_idx) const {
  const double v = level(level_idx).voltage / params_.v_nom;
  const double scale = v * v;
  const double pj =
      static_cast<double>(a.buffer_writes) * params_.e_buffer_write +
      static_cast<double>(a.buffer_reads) * params_.e_buffer_read +
      static_cast<double>(a.vc_allocs) * params_.e_vc_alloc +
      static_cast<double>(a.sw_arbs) * params_.e_sw_arb +
      static_cast<double>(a.xbar_traversals) * params_.e_xbar +
      static_cast<double>(a.link_flits) * params_.e_link;
  return pj * scale;
}

double PowerModel::static_energy_slots(int routers, int links,
                                       double total_vc_slots, int level_idx,
                                       double wall_ns) const {
  const double v = level(level_idx).voltage / params_.v_nom;
  const double mw =
      v * (static_cast<double>(routers) * params_.p_static_router_base +
           total_vc_slots * params_.p_static_per_vc_slot +
           static_cast<double>(links) * params_.p_static_link);
  // mW * ns = pJ.
  return mw * wall_ns;
}

}  // namespace drlnoc::noc
