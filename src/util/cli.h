// The one command-line front end of every tool, bench and example.
//
// Tokens are `key=value`, `--key=value` or `--key value`
// (Config::from_args); a bare `smoke` or `--smoke` means `smoke=1`, and
// `log=LEVEL` sets the log level. A binary reads every key it takes, then
// calls reject_unknown_args before it does any work, so a mistyped key stops
// the run at once.
//
// Exit codes: 2 for a malformed token or an unknown key, 1 when the body
// throws, otherwise whatever the body returns. Each error is one
// "<binary>: <what>" line on stderr.
#pragma once

#include <functional>

#include "util/config.h"

namespace drlnoc::util {

/// Refuses the first key nothing has read; run_cli exits 2 naming it.
void reject_unknown_args(const Config& args);

/// Parses argv[first..argc), applies `log=` and runs `body`; returns the
/// exit code. The binary's name in error lines is argv[0]'s file name.
int run_cli(int argc, char** argv,
            const std::function<int(const Config&)>& body, int first = 1);

}  // namespace drlnoc::util
