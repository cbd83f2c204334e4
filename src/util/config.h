// Minimal key=value configuration store behind every command line
// (util/cli.h) and every versioned text file (util/versioned_text.h). Each
// getter, and has() on a present key, marks the key read, so a strict reader
// can refuse the keys nobody asked for (typically typos).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace drlnoc::util {

class Config {
 public:
  /// Parses tokens of the form "key=value", "--key=value" and "--key value"
  /// from argv[1..argc); throws std::invalid_argument on malformed tokens.
  static Config from_args(int argc, const char* const* argv);

  /// Sets `key`; `line` is its 1-based source line (0: none, as for argv),
  /// which the typed getters cite alongside the key name.
  void set(const std::string& key, const std::string& value, int line = 0);

  /// " (line N)" when a source line is recorded for `key`, else "".
  std::string location_suffix(const std::string& key) const;

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  std::string get(const std::string& key, const char* fallback) const {
    return get(key, std::string(fallback));
  }
  long long get(const std::string& key, long long fallback) const;
  /// Cycle counts, seeds and counters: digits only, so a sign ("-1",
  /// "+5"), trailing characters and values above 2^64-1 are errors rather
  /// than a wrap to ~2^64.
  std::uint64_t get(const std::string& key, std::uint64_t fallback) const;
  int get(const std::string& key, int fallback) const;
  double get(const std::string& key, double fallback) const;
  bool get(const std::string& key, bool fallback) const;

  /// The first key, in sorted order, that no getter or has() has read.
  std::optional<std::string> unread_key() const;
  /// Throws std::invalid_argument("<error_prefix>: unknown key 'k' (line N)")
  /// for unread_key(), if any.
  void reject_unknown(const std::string& error_prefix) const;

 private:
  struct Entry {
    std::string value;
    int line = 0;
    mutable bool read = false;
  };
  /// The entry of `key`, marked read, or nullptr when absent.
  const Entry* find(const std::string& key) const;
  /// `key` parsed strictly as a T, or `fallback` when absent.
  template <typename T>
  T number(const std::string& key, T fallback) const;

  std::map<std::string, Entry> entries_;
};

}  // namespace drlnoc::util
