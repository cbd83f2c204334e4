// Shared JSON metric emission for the benchmarks: a flat "metrics" object
// with the bench name, schema, git provenance and units. Keeping the format
// in one place keeps every bench's JSON diffable by the same tooling;
// before/after comparisons are bench/e2e/compare.py's job.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/log.h"

// Injected by the build (CMake runs `git describe --always --dirty`); the
// fallback keeps out-of-tree or tarball builds compiling.
#ifndef DRLNOC_GIT_DESCRIBE
#define DRLNOC_GIT_DESCRIBE "unknown"
#endif

namespace drlnoc::bench {

/// Version of the benchmark JSON layout below. Bump when fields are added,
/// renamed or re-typed so downstream diff tooling can gate on it.
inline constexpr int kBenchJsonSchema = 2;

/// Writes the benchmark JSON block. `units` labels the metric values
/// (throughput benches use the default "per_second"; mixed-metric tables
/// pass their own label).
inline void write_metrics_json(
    std::ostream& os, const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& metrics,
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
  os << "  }\n}\n";
}

/// write_metrics_json into the file at `path`. Returns false, after logging
/// the path, when the file cannot be opened or written; a bench folds that
/// into a non-zero exit code.
inline bool write_metrics_file(
    const std::string& path, const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& metrics,
    const std::string& units = "per_second", const std::string& note = "") {
  std::ofstream out(path);
  if (out) write_metrics_json(out, bench_name, metrics, units, note);
  out.close();
  if (!out) {
    LOG_ERROR << bench_name << ": cannot write " << path;
    return false;
  }
  return true;
}

}  // namespace drlnoc::bench
