#include "util/versioned_text.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace drlnoc::util {

namespace {

std::string trim(const std::string& s, const char* blanks) {
  const auto b = s.find_first_not_of(blanks);
  if (b == std::string::npos) return std::string();
  return s.substr(b, s.find_last_not_of(blanks) - b + 1);
}

}  // namespace

Config parse_versioned_text(const std::string& text,
                            const TextFormat& format) {
  const std::string prefix = format.error_prefix + ": ";
  const std::string missing_magic = prefix + "missing magic line (expected '" +
                                    format.magic + " " +
                                    std::to_string(format.version) + "')";
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool magic_seen = false;
  std::set<std::string> seen_sections;
  std::string section_prefix;
  Config cfg;
  const auto at_line = [&] { return " (line " + std::to_string(lineno) + ")"; };
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped =
        trim(line.substr(0, line.find('#')), " \t\r");
    if (stripped.empty()) continue;  // blank / comment-only line
    if (!magic_seen) {
      std::istringstream ls(stripped);
      std::string magic;
      int version = 0;
      if (!(ls >> magic >> version) || magic != format.magic) {
        throw std::runtime_error(missing_magic);
      }
      if (version != format.version) {
        throw std::runtime_error(prefix + "unsupported format version " +
                                 std::to_string(version));
      }
      magic_seen = true;
      continue;
    }
    if (stripped.front() == '[') {
      const std::string name = stripped.back() == ']'
                                   ? stripped.substr(1, stripped.size() - 2)
                                   : std::string();
      if (std::find(format.sections.begin(), format.sections.end(), name) ==
          format.sections.end()) {
        throw std::invalid_argument(prefix + "unknown section '" + stripped +
                                    "'" + at_line());
      }
      if (!seen_sections.insert(name).second) {
        throw std::invalid_argument(prefix + "duplicate " + stripped +
                                    " block" + at_line());
      }
      section_prefix = name + ".";
      continue;
    }
    const auto eq = stripped.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(prefix + "bad config line " +
                                  std::to_string(lineno) + ": " + stripped);
    }
    const std::string key =
        section_prefix + trim(stripped.substr(0, eq), " \t");
    cfg.set(key, trim(stripped.substr(eq + 1), " \t"));
    cfg.set_line(key, lineno);
  }
  if (!magic_seen) throw std::runtime_error(missing_magic);
  return cfg;
}

void TrackedConfig::reject_unknown(const std::string& error_prefix) const {
  for (const std::string& key : cfg_.keys()) {
    if (!consumed_.count(key)) {
      throw std::invalid_argument(error_prefix + ": unknown key '" + key + "'" +
                                  cfg_.location_suffix(key));
    }
  }
}

std::string join_path(const std::string& base_dir, const std::string& path) {
  if (base_dir.empty() || path.empty() || path.front() == '/') return path;
  return base_dir + "/" + path;
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::optional<std::string> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace drlnoc::util
