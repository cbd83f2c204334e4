// Minimal key=value configuration store. Examples and bench binaries parse
// command-line overrides ("key=value" tokens) into this, so every experiment
// is reproducible from its printed parameter block.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace drlnoc::util {

class Config {
 public:
  Config() = default;

  /// Parses tokens of the form "key=value"; throws std::invalid_argument on
  /// malformed tokens.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);

  /// Records the 1-based source line `key` came from. The versioned text
  /// reader (util/versioned_text.h) calls this while scanning its input so
  /// the typed getters below can cite the offending line alongside the key
  /// name; configs built from argv carry no lines and report as before.
  void set_line(const std::string& key, int line);
  /// The recorded source line of `key`, or 0 when unknown.
  int line_of(const std::string& key) const;
  /// " (line N)" when a source line is recorded for `key`, else "".
  std::string location_suffix(const std::string& key) const;

  bool has(const std::string& key) const;
  std::optional<std::string> raw(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  long long get(const std::string& key, long long fallback) const;
  int get(const std::string& key, int fallback) const;
  double get(const std::string& key, double fallback) const;
  bool get(const std::string& key, bool fallback) const;

  /// Keys in insertion-independent (sorted) order, for printing.
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, int> lines_;
};

}  // namespace drlnoc::util
