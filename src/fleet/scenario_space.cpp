#include "fleet/scenario_space.h"

#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/scenario_io.h"
#include "util/versioned_text.h"

namespace drlnoc::fleet {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("fleet spec: " + what);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto b = item.find_first_not_of(" \t");
    if (b == std::string::npos) fail("empty entry in values list '" + text +
                                     "'");
    const auto e = item.find_last_not_of(" \t");
    out.push_back(item.substr(b, e - b + 1));
  }
  return out;
}

}  // namespace

std::size_t ScenarioSpace::size() const {
  std::size_t n = static_cast<std::size_t>(seeds);
  for (const SpaceAxis& axis : axes) n *= axis.values.size();
  return n;
}

void ScenarioSpace::validate() const {
  if (seeds < 1) fail("seeds must be >= 1");
  if (base_text.empty()) fail("no base scenario text");
  std::set<std::string> keys;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const SpaceAxis& axis = axes[i];
    const std::string who = "axis" + std::to_string(i) + ": ";
    if (axis.key.empty()) fail(who + "key is required");
    if (axis.values.empty()) fail(who + "no values");
    if (!keys.insert(axis.key).second) {
      fail(who + "duplicate axis key '" + axis.key + "'");
    }
  }
  constexpr std::size_t kMaxPoints = 1000000;
  if (size() > kMaxPoints) {
    fail("space has " + std::to_string(size()) +
         " points, over the sanity cap of " + std::to_string(kMaxPoints));
  }
}

ExpandedScenario ScenarioSpace::point(std::size_t index) const {
  if (index >= size()) {
    throw std::out_of_range("fleet spec: index " + std::to_string(index) +
                            " out of range (space has " +
                            std::to_string(size()) + " points)");
  }
  ExpandedScenario out;
  out.index = index;
  // Mixed-radix decode: seed replica innermost, then axes in order.
  std::size_t rem = index;
  out.seed_offset = rem % static_cast<std::size_t>(seeds);
  rem /= static_cast<std::size_t>(seeds);
  std::ostringstream label;
  label << name << "[" << index << "]";
  for (const SpaceAxis& axis : axes) {
    const std::size_t pick = rem % axis.values.size();
    rem /= axis.values.size();
    out.overrides[axis.key] = axis.values[pick];
    label << " " << axis.key << "=" << axis.values[pick];
  }
  label << " seed+" << out.seed_offset;
  out.label = label.str();
  return out;
}

ExpandedScenario ScenarioSpace::expand(std::size_t index) const {
  ExpandedScenario out = point(index);
  try {
    out.scenario = scenario::ScenarioReader::read_text(base_text, base_dir,
                                                       out.overrides);
  } catch (const std::exception& e) {
    throw std::invalid_argument("fleet spec: " + out.label + ": " + e.what());
  }
  out.scenario.name = out.label;
  out.scenario.net.seed += out.seed_offset;
  return out;
}

ScenarioSpace ScenarioSpaceReader::read_text(const std::string& text,
                                             const std::string& base_dir) {
  const util::Config cfg = util::parse_versioned_text(
      text, {"drlfs", kFleetSpecFormatVersion, "fleet spec", {}});
  const util::TrackedConfig c(cfg);

  ScenarioSpace space;
  space.spec_text = text;
  space.name = c.str("name", space.name);
  space.base_file = c.str("base", "");
  if (space.base_file.empty()) {
    fail("base = <scenario.drlsc> is required");
  }
  space.seeds = c.get("seeds", space.seeds);
  const int axes = c.get("axes", 0);
  if (axes < 0) fail("axes must be >= 0");
  for (int i = 0; i < axes; ++i) {
    const std::string p = "axis" + std::to_string(i) + ".";
    SpaceAxis axis;
    axis.key = c.str(p + "key", "");
    const bool has_csv = c.has(p + "values");
    const bool has_count = c.has(p + "count");
    if (has_csv && has_count) {
      fail(p + "values and " + p + "count are mutually exclusive" +
           cfg.location_suffix(p + "count"));
    }
    if (has_csv) {
      axis.values = split_csv(c.str(p + "values", ""));
    } else if (has_count) {
      const int count = c.get(p + "count", 0);
      if (count < 1) fail(p + "count must be >= 1");
      for (int k = 0; k < count; ++k) {
        const std::string vk = p + "value" + std::to_string(k);
        if (!c.has(vk)) fail(vk + " is missing");
        axis.values.push_back(c.str(vk, ""));
      }
    } else {
      fail(p + "values (comma list) or " + p + "count + " + p +
           "valueK is required");
    }
    space.axes.push_back(axis);
  }

  c.reject_unknown("fleet spec");

  const std::string base_path = util::join_path(base_dir, space.base_file);
  std::optional<std::string> base_text = util::read_file_bytes(base_path);
  if (!base_text) fail("cannot open base scenario " + base_path);
  space.base_text = std::move(*base_text);
  // Traces/policies inside the base scenario resolve relative to the base
  // scenario's own directory, exactly as a direct ScenarioReader::read_file
  // of it would.
  space.base_dir = util::parent_dir(base_path);

  space.validate();
  // Smoke-expand one point so a spec whose overrides misspell a key (or
  // whose base scenario is broken) fails at load time, not mid-fleet.
  space.expand(0);
  return space;
}

ScenarioSpace ScenarioSpaceReader::read_file(const std::string& path) {
  return util::read_text_file(
      path, "fleet spec",
      [](const std::string& text, const std::string& base_dir) {
        return read_text(text, base_dir);
      });
}

}  // namespace drlnoc::fleet
