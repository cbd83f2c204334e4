#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace drlnoc::util {

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    // Flag spelling: "--key=value" or "--key value" normalize to "key=value".
    const bool dashed = token.rfind("--", 0) == 0;
    if (dashed) token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos && eq != 0) {
      cfg.set(token.substr(0, eq), token.substr(eq + 1));
      continue;
    }
    if (dashed && !token.empty() && eq == std::string::npos && i + 1 < argc) {
      // Consume the next token as this flag's value unless it is itself a
      // flag. Values may contain '=' (e.g. `--workload trace=app.drltrc`).
      const std::string next = argv[i + 1];
      if (next.rfind("--", 0) != 0) {
        cfg.set(token, argv[++i]);
        continue;
      }
    }
    throw std::invalid_argument("expected key=value, got: " +
                                std::string(argv[i]));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value,
                 int line) {
  entries_[key] = Entry{value, line};
}

const Config::Entry* Config::find(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.read = true;
  return &it->second;
}

std::string Config::location_suffix(const std::string& key) const {
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second.line > 0
             ? " (line " + std::to_string(it->second.line) + ")"
             : std::string();
}

bool Config::has(const std::string& key) const { return find(key) != nullptr; }

std::string Config::get(const std::string& key,
                        const std::string& fallback) const {
  const Entry* e = find(key);
  return e ? e->value : fallback;
}

// Strict full-string parse behind the numeric getters: unlike std::stoll or
// std::stod, trailing garbage ("8x", "1.5" for an integer) and out-of-range
// magnitudes are hard errors, so a typo in a flag or config file can't
// silently truncate to a valid number. Signed types accept a leading '+'
// (from_chars rejects it); unsigned ones take digits only, so "-1" is an
// error rather than a wrap to ~2^64. NaN never names a meaningful knob
// value; "inf" stays accepted (open-ended tenant stop times serialize so).
template <typename T>
T Config::number(const std::string& key, T fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  const std::string& s = e->value;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  if (std::is_signed_v<T> && first != last && *first == '+') ++first;
  T value{};
  const auto [ptr, ec] = std::from_chars(first, last, value);
  const char* reason = nullptr;
  if (ec == std::errc::result_out_of_range) {
    reason = " (out of range)";
  } else if (ec != std::errc() || first == last) {
    reason = std::is_signed_v<T> ? "" : " (expected a non-negative integer)";
  } else if (ptr != last) {
    reason = " (trailing characters)";
  } else if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(value)) reason = " (NaN is never a valid knob value)";
  }
  if (reason == nullptr) return value;
  std::string msg = "bad ";
  msg += std::is_floating_point_v<T> ? "number" : "integer";
  msg += " for " + key + location_suffix(key) + ": " + s + reason;
  throw std::invalid_argument(msg);
}

long long Config::get(const std::string& key, long long fallback) const {
  return number(key, fallback);
}

std::uint64_t Config::get(const std::string& key,
                          std::uint64_t fallback) const {
  return number(key, fallback);
}

int Config::get(const std::string& key, int fallback) const {
  return number(key, fallback);
}

double Config::get(const std::string& key, double fallback) const {
  return number(key, fallback);
}

bool Config::get(const std::string& key, bool fallback) const {
  const Entry* e = find(key);
  if (!e) return fallback;
  std::string s = e->value;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw std::invalid_argument("bad boolean for " + key +
                              location_suffix(key) + ": " + e->value);
}

std::optional<std::string> Config::unread_key() const {
  for (const auto& [key, entry] : entries_) {
    if (!entry.read) return key;
  }
  return std::nullopt;
}

void Config::reject_unknown(const std::string& error_prefix) const {
  if (const std::optional<std::string> key = unread_key()) {
    throw std::invalid_argument(error_prefix + ": unknown key '" + *key +
                                "'" + location_suffix(*key));
  }
}

}  // namespace drlnoc::util
