#include "fleet/scorecard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace drlnoc::fleet {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

Scorecard score_fleet(const std::vector<FleetScenarioResult>& results,
                      std::size_t space_size, const std::string& spec_name,
                      int worst_k) {
  Scorecard card;
  card.spec_name = spec_name;
  card.space_size = space_size;
  card.scored = results.size();
  card.missing = space_size > results.size() ? space_size - results.size() : 0;

  std::vector<FleetScenarioResult> sorted = results;
  std::sort(sorted.begin(), sorted.end(),
            [](const FleetScenarioResult& a, const FleetScenarioResult& b) {
              return a.index < b.index;
            });

  std::vector<double> reward, latency, p95, power, edp;
  std::map<std::string, std::vector<double>> class_slo, class_p95;
  std::vector<WorstEntry> ranked;
  for (const FleetScenarioResult& r : sorted) {
    reward.push_back(r.reward);
    latency.push_back(r.mean_latency);
    p95.push_back(r.p95_latency);
    power.push_back(r.mean_power_mw);
    edp.push_back(r.mean_edp);
    card.flits_dropped += r.flits_dropped;
    card.retries += r.retries;
    card.packets_lost += r.packets_lost;
    card.rerouted_hops += r.rerouted_hops;
    WorstEntry w;
    w.index = r.index;
    w.label = r.label;
    for (const FleetTenantOutcome& t : r.tenants) {
      class_slo[t.qos].push_back(t.slo_hit_rate);
      class_p95[t.qos].push_back(t.p95_latency);
      w.min_slo_hit_rate = std::min(w.min_slo_hit_rate, t.slo_hit_rate);
      w.worst_p95 = std::max(w.worst_p95, t.p95_latency);
    }
    ranked.push_back(w);
  }

  card.reward = core::summarize_metric(reward);
  card.latency = core::summarize_metric(latency);
  card.p95 = core::summarize_metric(p95);
  card.power_mw = core::summarize_metric(power);
  card.edp = core::summarize_metric(edp);

  for (const auto& [cls, slos] : class_slo) {
    ClassScore score;
    score.tenants = slos.size();
    score.slo_hit_rate = core::summarize_metric(slos).mean;
    score.worst_slo_hit_rate = *std::min_element(slos.begin(), slos.end());
    const std::vector<double>& p95s = class_p95[cls];
    score.p95_mean = core::summarize_metric(p95s).mean;
    score.p95_p95 = quantile(p95s, 0.95);
    card.classes[cls] = score;
  }

  std::sort(ranked.begin(), ranked.end(),
            [](const WorstEntry& a, const WorstEntry& b) {
              if (a.min_slo_hit_rate != b.min_slo_hit_rate) {
                return a.min_slo_hit_rate < b.min_slo_hit_rate;
              }
              if (a.worst_p95 != b.worst_p95) return a.worst_p95 > b.worst_p95;
              return a.index < b.index;
            });
  const std::size_t k =
      std::min(ranked.size(), static_cast<std::size_t>(std::max(worst_k, 0)));
  card.worst.assign(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(k));
  return card;
}

namespace {

/// `text` as the body of a JSON string: quotes, backslashes and control
/// characters escaped (spec names and labels are free text).
std::string json_escaped(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      char buf[7];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(u));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void summary_fields(std::ostream& os, const std::string& name,
                    const core::MetricSummary& s, bool last = false) {
  os << "    \"" << name << "_mean\": " << s.mean << ",\n";
  os << "    \"" << name << "_stddev\": " << s.stddev << ",\n";
  os << "    \"" << name << "_ci95\": " << s.ci95 << (last ? "\n" : ",\n");
}

}  // namespace

void write_scorecard_json(std::ostream& os, const Scorecard& card) {
  const std::streamsize old_precision = os.precision(17);
  os << "{\n";
  os << "  \"scorecard\": " << kScorecardSchema << ",\n";
  os << "  \"spec\": \"" << json_escaped(card.spec_name) << "\",\n";
  os << "  \"space_size\": " << card.space_size << ",\n";
  os << "  \"scored\": " << card.scored << ",\n";
  os << "  \"missing\": " << card.missing << ",\n";
  os << "  \"aggregate\": {\n";
  summary_fields(os, "reward", card.reward);
  summary_fields(os, "latency", card.latency);
  summary_fields(os, "p95", card.p95);
  summary_fields(os, "power_mw", card.power_mw);
  summary_fields(os, "edp", card.edp, /*last=*/true);
  os << "  },\n";
  os << "  \"slo\": {\n";
  std::size_t i = 0;
  for (const auto& [cls, score] : card.classes) {
    os << "    \"" << json_escaped(cls) << "\": {\n";
    os << "      \"tenants\": " << score.tenants << ",\n";
    os << "      \"slo_hit_rate\": " << score.slo_hit_rate << ",\n";
    os << "      \"worst_slo_hit_rate\": " << score.worst_slo_hit_rate
       << ",\n";
    os << "      \"p95_mean\": " << score.p95_mean << ",\n";
    os << "      \"p95_p95\": " << score.p95_p95 << "\n";
    os << "    }" << (++i == card.classes.size() ? "\n" : ",\n");
  }
  os << "  },\n";
  os << "  \"degradation\": {\n";
  os << "    \"flits_dropped\": " << card.flits_dropped << ",\n";
  os << "    \"retries\": " << card.retries << ",\n";
  os << "    \"packets_lost\": " << card.packets_lost << ",\n";
  os << "    \"rerouted_hops\": " << card.rerouted_hops << "\n";
  os << "  },\n";
  os << "  \"worst\": [\n";
  for (std::size_t j = 0; j < card.worst.size(); ++j) {
    const WorstEntry& w = card.worst[j];
    os << "    {\"index\": " << w.index << ", \"label\": \""
       << json_escaped(w.label)
       << "\", \"min_slo_hit_rate\": " << w.min_slo_hit_rate
       << ", \"worst_p95\": " << w.worst_p95 << "}"
       << (j + 1 == card.worst.size() ? "\n" : ",\n");
  }
  os << "  ]\n";
  os << "}\n";
  os.precision(old_precision);
}

}  // namespace drlnoc::fleet
