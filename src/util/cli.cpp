#include "util/cli.h"

#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/log.h"

namespace drlnoc::util {

namespace {

/// A command line the binary cannot run (exit 2).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

}  // namespace

void reject_unknown_args(const Config& args) {
  if (const std::optional<std::string> key = args.unread_key()) {
    throw UsageError("unknown key '" + *key + "'");
  }
}

int run_cli(int argc, char** argv,
            const std::function<int(const Config&)>& body, int first) {
  const std::string_view path = argv[0];
  // No slash: npos + 1 wraps to 0, the whole path.
  const std::string_view name = path.substr(path.find_last_of('/') + 1);
  // from_args skips its argv[0] slot, so the program path stays in front.
  std::vector<const char*> tokens = {argv[0]};
  for (int i = first; i < argc; ++i) {
    const std::string_view token = argv[i];
    tokens.push_back(token == "smoke" || token == "--smoke" ? "smoke=1"
                                                            : argv[i]);
  }
  int failure = 2;  // a malformed token
  try {
    const Config args =
        Config::from_args(static_cast<int>(tokens.size()), tokens.data());
    init_log(args.get("log", ""));
    failure = 1;  // the body threw, unless it refused a key
    return body(args);
  } catch (const UsageError& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return failure;
  }
}

}  // namespace drlnoc::util
