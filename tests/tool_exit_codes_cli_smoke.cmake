# CLI smoke for the exit codes the command-line tools share: 2 for a
# missing or unknown command, 0 for `--help`/`-h` and for `<command>
# --help` (also for an unknown command), 1 when a command fails (here, a
# file that does not exist).
#
#   cmake -DSCENARIOCTL=<scenarioctl> -DTRACECTL=<tracectl> \
#         -DFLEETCTL=<fleetctl> -DWORK=<scratch dir> \
#         -P tests/tool_exit_codes_cli_smoke.cmake
if(NOT SCENARIOCTL OR NOT TRACECTL OR NOT FLEETCTL OR NOT WORK)
  message(FATAL_ERROR "pass -DSCENARIOCTL, -DTRACECTL, -DFLEETCTL and -DWORK")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs `tool args...` in WORK; the exit code must be `expect_rc`.
function(expect_exit expect_rc tool)
  execute_process(COMMAND "${tool}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expect_rc)
    string(REPLACE ";" " " args "${ARGN}")
    message(FATAL_ERROR "${tool} ${args}: exit ${rc}, expected ${expect_rc}\n"
                        "${out}${err}")
  endif()
endfunction()

# Each tool with one of its commands and that command's failing run.
foreach(tool_case
    "${SCENARIOCTL}|run|run;file=missing.drlsc"
    "${TRACECTL}|replay|info;file=missing.drltrc"
    "${FLEETCTL}|score|describe;spec=missing.drlfs")
  string(REPLACE "|" ";" parts "${tool_case}")
  list(GET parts 0 tool)
  list(GET parts 1 command)
  list(SUBLIST parts 2 -1 failing)
  expect_exit(2 "${tool}")
  expect_exit(2 "${tool}" no_such_command)
  expect_exit(0 "${tool}" --help)
  expect_exit(0 "${tool}" -h)
  expect_exit(0 "${tool}" ${command} --help)
  expect_exit(0 "${tool}" ${command} -h)
  expect_exit(0 "${tool}" no_such_command --help)
  expect_exit(1 "${tool}" ${failing})
endforeach()
