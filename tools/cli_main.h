// The subcommand layer of the command-line tools (scenarioctl, tracectl,
// fleetctl) over util/cli.h: `<tool> <command> [key=value...]`. Exit 2 for
// a missing or unknown command (usage on stderr), 0 for `--help`/`-h`
// alone (usage on stdout) or after a command (its help on stdout); a
// command's own run exits as util/cli.h describes.
#pragma once

#include <initializer_list>
#include <iostream>
#include <string>

#include "util/cli.h"
#include "util/config.h"

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
  for (const Command& c : commands) {
    if (command == c.name) return util::run_cli(argc, argv, c.run, 2);
  }
  std::cerr << tool << ": unknown command '" << command << "'\n";
  return usage_error(usage);
}

}  // namespace drlnoc::cli
