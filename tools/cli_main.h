// The main() skeleton shared by the command-line tools (scenarioctl,
// tracectl, fleetctl): `<tool> <command> [key=value...]`.
//
// Exit codes: 2 for a missing or unknown command (the usage text goes to
// stderr), 0 for `--help`/`-h` alone (usage on stdout) or after a command
// (that command's help on stdout), 1 when the command throws; otherwise
// whatever the command returns. `--log=LEVEL` starts logging before the
// command runs.
#pragma once

#include <exception>
#include <initializer_list>
#include <iostream>
#include <string>

#include "util/config.h"
#include "util/log.h"

namespace drlnoc::cli {

struct Command {
  const char* name;
  int (*run)(const util::Config& cfg);
};

/// The usage text on stderr with exit code 2: the reply to a malformed
/// command line.
inline int usage_error(const char* usage) {
  std::cerr << usage;
  return 2;
}

/// `help(command)` prints one command's help to stdout (the usage text for
/// a command it does not know).
inline int run_main(int argc, char** argv, const char* tool,
                    const char* usage, void (*help)(const std::string&),
                    std::initializer_list<Command> commands) {
  if (argc < 2) return usage_error(usage);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    std::cout << usage;
    return 0;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      help(command);
      return 0;
    }
  }
  try {
    // Config::from_args skips its argv[0] slot; shift past the subcommand.
    const util::Config cfg = util::Config::from_args(argc - 1, argv + 1);
    util::init_log(cfg.get("log", std::string()));
    for (const Command& c : commands) {
      if (command == c.name) return c.run(cfg);
    }
    LOG_ERROR << tool << ": unknown command '" << command << "'";
    return usage_error(usage);
  } catch (const std::exception& e) {
    LOG_ERROR << tool << ": " << e.what();
    return 1;
  }
}

}  // namespace drlnoc::cli
