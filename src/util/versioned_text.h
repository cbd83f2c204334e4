// The one reader behind the versioned `key = value` text formats (`.drlsc`
// scenarios, `.drlfs` fleet specs, `.drlfr` fleet results): magic line,
// comments, `[section]` prefixes and line-tracked values, plus the strict
// unknown-key check and the file plumbing the format loaders share.
// docs/FORMATS.md "Common text rules" is the user-facing description.
#pragma once

#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/config.h"

namespace drlnoc::util {

/// What distinguishes one versioned text format from another.
struct TextFormat {
  std::string magic;         ///< first token of the magic line, e.g. "drlsc"
  int version = 1;           ///< the only version this build reads
  std::string error_prefix;  ///< prepended to every error as "<prefix>: "
  /// Allowed `[name]` headers; a header prefixes the keys after it with
  /// "name.". Empty: every header is an unknown section.
  std::vector<std::string> sections;
};

/// Scans `text`: `#` starts a comment, blank lines are skipped, the first
/// remaining line must be "<magic> <version>", and every other line is a
/// `[section]` header or `key = value`. Each key records its 1-based line, so
/// Config's typed getters cite "(line N)". A missing magic line or another
/// version throws std::runtime_error; malformed lines and unknown or
/// duplicate sections throw std::invalid_argument.
Config parse_versioned_text(const std::string& text, const TextFormat& format);

/// Largest block count (`tenants = N`, `faults.events = N`, ...) the text
/// formats accept. A block may consist of defaults only, so the keys present
/// do not bound a count; this cap keeps a corrupt count from allocating
/// without bound.
inline constexpr int kMaxBlockCount = 4096;

/// `cfg`'s integer `key` (0 when absent) as a block count. Throws
/// std::invalid_argument("<error_prefix>: <key> = N is outside [<min>,
/// 4096] (line L)") when it is out of range.
int block_count(const Config& cfg, const std::string& key, int min,
                const std::string& error_prefix);

/// Read-only view of a Config that remembers every key it served, so a
/// strict loader can reject the keys nobody asked for (typically typos).
/// The Config must outlive the view.
class TrackedConfig {
 public:
  explicit TrackedConfig(const Config& cfg) : cfg_(cfg) {}

  bool has(const std::string& key) const {
    if (!cfg_.has(key)) return false;
    consumed_.insert(key);
    return true;
  }
  template <typename T>
  T get(const std::string& key, T fallback) const {
    if (cfg_.has(key)) consumed_.insert(key);
    return cfg_.get(key, fallback);
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    return get<std::string>(key, fallback);
  }
  /// block_count over the viewed Config.
  int count(const std::string& key, int min,
            const std::string& error_prefix) const {
    if (cfg_.has(key)) consumed_.insert(key);
    return block_count(cfg_, key, min, error_prefix);
  }

  /// Throws std::invalid_argument("<error_prefix>: unknown key 'k' (line N)")
  /// for the first (sorted) key that was never served.
  void reject_unknown(const std::string& error_prefix) const;

 private:
  const Config& cfg_;
  mutable std::set<std::string> consumed_;
};

/// `path` relative to `base_dir`; absolute paths and an empty base pass
/// through unchanged.
std::string join_path(const std::string& base_dir, const std::string& path);

/// Directory part of `path`, "" for a bare file name.
std::string parent_dir(const std::string& path);

/// The whole file as bytes, or nullopt when it cannot be opened.
std::optional<std::string> read_file_bytes(const std::string& path);

/// Loads a text-format file: returns parse(text, parent_dir(path)), so paths
/// inside the file resolve next to it. An unopenable file throws
/// std::runtime_error("<error_prefix>: cannot open <path>"); a parse error
/// is rethrown as std::invalid_argument prefixed with "<path>: ".
template <typename Parse>
auto read_text_file(const std::string& path, const std::string& error_prefix,
                    Parse&& parse) {
  const std::optional<std::string> text = read_file_bytes(path);
  if (!text) throw std::runtime_error(error_prefix + ": cannot open " + path);
  try {
    return parse(*text, parent_dir(path));
  } catch (const std::exception& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

}  // namespace drlnoc::util
