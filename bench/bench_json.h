// Shared JSON metric emission for the benchmarks: a flat "metrics" object,
// an optional "baseline" echo and per-key "speedup" block when comparing
// against a previous BENCH_*.json (perf_smoke). Keeping the format in one
// place keeps every tracked trajectory file diffable by the same tooling.
#pragma once

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/log.h"
#include "util/versioned_text.h"

// Injected by the build (CMake runs `git describe --always --dirty`); the
// fallback keeps out-of-tree or tarball builds compiling.
#ifndef DRLNOC_GIT_DESCRIBE
#define DRLNOC_GIT_DESCRIBE "unknown"
#endif

namespace drlnoc::bench {

/// Version of the benchmark JSON layout below. Bump when fields are added,
/// renamed or re-typed so downstream diff tooling can gate on it.
inline constexpr int kBenchJsonSchema = 2;

/// Extracts the flat numeric "metrics" object from a previous benchmark
/// JSON file. Tolerant hand parser: finds `"metrics"`, then reads
/// `"key": number` pairs until the object closes.
inline std::map<std::string, double> read_baseline_metrics(
    const std::string& path) {
  const std::optional<std::string> file = util::read_file_bytes(path);
  if (!file) {
    LOG_WARN << "bench: cannot read baseline file " << path;
    return {};
  }
  const std::string& text = *file;
  std::map<std::string, double> metrics;
  std::size_t pos = text.find("\"metrics\"");
  if (pos == std::string::npos) return metrics;
  pos = text.find('{', pos);
  if (pos == std::string::npos) return metrics;
  const std::size_t end = text.find('}', pos);
  std::size_t cursor = pos;
  while (cursor < end) {
    const std::size_t k0 = text.find('"', cursor);
    if (k0 == std::string::npos || k0 > end) break;
    const std::size_t k1 = text.find('"', k0 + 1);
    const std::size_t colon = text.find(':', k1);
    if (k1 == std::string::npos || colon == std::string::npos || colon > end)
      break;
    const std::string key = text.substr(k0 + 1, k1 - k0 - 1);
    try {
      metrics[key] = std::stod(text.substr(colon + 1));
    } catch (const std::exception&) {
      // Tolerant parser: skip malformed values instead of crashing.
    }
    cursor = text.find(',', colon);
    if (cursor == std::string::npos || cursor > end) break;
  }
  return metrics;
}

/// Writes the benchmark JSON block: metrics, then baseline + speedup when a
/// baseline is provided. `units` labels the metric values (throughput
/// benches use the default "per_second"; mixed-metric tables pass their
/// own label).
inline void write_metrics_json(
    std::ostream& os, const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& metrics,
    const std::map<std::string, double>& baseline,
    const std::string& units = "per_second", const std::string& note = "") {
  os.precision(6);
  os << "{\n  \"bench\": \"" << bench_name
     << "\",\n  \"schema\": " << kBenchJsonSchema
     << ",\n  \"git\": \"" << DRLNOC_GIT_DESCRIBE
     << "\",\n  \"units\": \"" << units << "\",\n";
  if (!note.empty()) os << "  \"note\": \"" << note << "\",\n";
  os << "  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << "    \"" << metrics[i].first << "\": " << metrics[i].second
       << (i + 1 == metrics.size() ? "\n" : ",\n");
  }
  os << "  }";
  if (!baseline.empty()) {
    os << ",\n  \"baseline\": {\n";
    std::size_t i = 0;
    for (const auto& [k, v] : baseline) {
      os << "    \"" << k << "\": " << v
         << (++i == baseline.size() ? "\n" : ",\n");
    }
    os << "  },\n  \"speedup\": {\n";
    std::vector<std::string> lines;
    for (const auto& [key, rate] : metrics) {
      const auto it = baseline.find(key);
      if (it == baseline.end() || it->second <= 0.0) continue;
      std::ostringstream line;
      line.precision(3);
      line << "    \"" << key << "\": " << rate / it->second;
      lines.push_back(line.str());
    }
    for (std::size_t j = 0; j < lines.size(); ++j) {
      os << lines[j] << (j + 1 == lines.size() ? "\n" : ",\n");
    }
    os << "  }";
  }
  os << "\n}\n";
}

/// write_metrics_json into the file at `path`. Returns false, after logging
/// the path, when the file cannot be opened or written; a bench folds that
/// into a non-zero exit code.
inline bool write_metrics_file(
    const std::string& path, const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& metrics,
    const std::map<std::string, double>& baseline,
    const std::string& units = "per_second", const std::string& note = "") {
  std::ofstream out(path);
  if (out) write_metrics_json(out, bench_name, metrics, baseline, units, note);
  out.close();
  if (!out) {
    LOG_ERROR << bench_name << ": cannot write " << path;
    return false;
  }
  return true;
}

}  // namespace drlnoc::bench
