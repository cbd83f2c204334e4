#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

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

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::set_line(const std::string& key, int line) {
  lines_[key] = line;
}

int Config::line_of(const std::string& key) const {
  auto it = lines_.find(key);
  return it == lines_.end() ? 0 : it->second;
}

std::string Config::location_suffix(const std::string& key) const {
  const int line = line_of(key);
  return line > 0 ? " (line " + std::to_string(line) + ")" : std::string();
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get(const std::string& key,
                        const std::string& fallback) const {
  auto v = raw(key);
  return v ? *v : fallback;
}

long long Config::get(const std::string& key, long long fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  // Strict full-string parse: unlike std::stoll, trailing garbage
  // ("8x", "1.5") and out-of-range magnitudes are hard errors, so a typo
  // in a flag or config file can't silently truncate to a valid number.
  const std::string& s = *v;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  if (first != last && *first == '+') ++first;  // from_chars rejects '+'
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("bad integer for " + key +
                                location_suffix(key) + ": " + s +
                                " (out of range)");
  }
  if (ec != std::errc() || first == last) {
    throw std::invalid_argument("bad integer for " + key +
                                location_suffix(key) + ": " + s);
  }
  if (ptr != last) {
    throw std::invalid_argument("bad integer for " + key +
                                location_suffix(key) + ": " + s +
                                " (trailing characters)");
  }
  return value;
}

int Config::get(const std::string& key, int fallback) const {
  const long long wide = get(key, static_cast<long long>(fallback));
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("bad integer for " + key +
                                location_suffix(key) + ": " + *raw(key) +
                                " (out of range)");
  }
  return static_cast<int>(wide);
}

double Config::get(const std::string& key, double fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  // Strict full-string parse; "inf" stays accepted (open-ended tenant stop
  // times serialize as inf) but NaN never names a meaningful knob value.
  const std::string& s = *v;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  if (first != last && *first == '+') ++first;  // from_chars rejects '+'
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("bad number for " + key +
                                location_suffix(key) + ": " + s +
                                " (out of range)");
  }
  if (ec != std::errc() || first == last) {
    throw std::invalid_argument("bad number for " + key +
                                location_suffix(key) + ": " + s);
  }
  if (ptr != last) {
    throw std::invalid_argument("bad number for " + key +
                                location_suffix(key) + ": " + s +
                                " (trailing characters)");
  }
  if (std::isnan(value)) {
    throw std::invalid_argument("bad number for " + key +
                                location_suffix(key) + ": " + s +
                                " (NaN is never a valid knob value)");
  }
  return value;
}

bool Config::get(const std::string& key, bool fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw std::invalid_argument("bad boolean for " + key +
                              location_suffix(key) + ": " + *v);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace drlnoc::util
