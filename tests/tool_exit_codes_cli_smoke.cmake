# CLI smoke for the exit codes the command-line tools share: 2 for a
# missing or unknown command, 0 for `--help`/`-h` and for `<command>
# --help` (also for an unknown command), 1 when a command fails (a file
# that does not exist, a negative cycle count on a valid input, traffic
# the workloads refuse, or a routing the topology cannot take). The
# front end every tool and bench shares (src/util/cli.h) exits 2 on a
# mistyped key, naming it, before any work, and 1 rather than abort when
# a bench throws.
#
#   cmake -DSCENARIOCTL=<scenarioctl> -DTRACECTL=<tracectl> \
#         -DFLEETCTL=<fleetctl> -DTABLE1=<table1_power_savings> \
#         -DTABLE8=<table8_fleet> -DWORK=<scratch dir> \
#         -P tests/tool_exit_codes_cli_smoke.cmake
if(NOT SCENARIOCTL OR NOT TRACECTL OR NOT FLEETCTL OR NOT TABLE1 OR
   NOT TABLE8 OR NOT WORK)
  message(FATAL_ERROR "pass -DSCENARIOCTL, -DTRACECTL, -DFLEETCTL, -DTABLE1, "
                      "-DTABLE8 and -DWORK")
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

# Negative cycle counts are parse errors, not a wrap to ~2^64 cycles: each
# run exits 1 before stepping, while the same inputs run cleanly without
# the override. scenarioctl keeps exit 2 for an epoch_cycles of 0.
set(scenario "drlsc 1\nwidth = 4\nheight = 4\nduration = 200\ntenants = 1\n"
             "tenant0.workload = steady\ntenant0.rate = 0.05\n")
file(WRITE "${WORK}/tiny.drlsc" ${scenario})
file(WRITE "${WORK}/tiny_scheduled.drlsc" ${scenario}
     "[controller]\ntype = heuristic\nepochs = 1\n")
file(WRITE "${WORK}/tiny.drltrc"
     "drltrc 1\nnodes 2\ndefault_length 4\n1 0 1 0 4\n")
expect_exit(0 "${TRACECTL}" replay file=tiny.drltrc)
expect_exit(1 "${TRACECTL}" replay file=tiny.drltrc cycle_limit=-1)
expect_exit(0 "${SCENARIOCTL}" run file=tiny.drlsc)
expect_exit(1 "${SCENARIOCTL}" run file=tiny.drlsc cycle_limit=-1)
expect_exit(0 "${SCENARIOCTL}" run file=tiny_scheduled.drlsc)
expect_exit(1 "${SCENARIOCTL}" run file=tiny_scheduled.drlsc epoch_cycles=-1)
expect_exit(2 "${SCENARIOCTL}" run file=tiny_scheduled.drlsc epoch_cycles=0)

# Traffic the workloads would refuse fails validation, so `validate` and
# `describe` exit 1 on it just as `run` does.
file(WRITE "${WORK}/bad_pattern.drlsc" ${scenario} "tenant0.pattern = nope\n")
expect_exit(1 "${SCENARIOCTL}" validate file=bad_pattern.drlsc)
expect_exit(1 "${SCENARIOCTL}" describe file=bad_pattern.drlsc)
expect_exit(1 "${SCENARIOCTL}" run file=bad_pattern.drlsc)
# So does a routing the topology cannot take.
file(WRITE "${WORK}/bad_routing.drlsc" ${scenario} "routing = torus_dor\n")
expect_exit(1 "${SCENARIOCTL}" validate file=bad_routing.drlsc)
expect_exit(1 "${SCENARIOCTL}" describe file=bad_routing.drlsc)
expect_exit(1 "${SCENARIOCTL}" run file=bad_routing.drlsc)
expect_exit(0 "${SCENARIOCTL}" validate file=tiny.drlsc)

# A key the binary does not read exits 2 with one stderr line naming it,
# before any work (nothing on stdout).
function(expect_unknown_key key tool)
  execute_process(COMMAND "${tool}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown key '${key}'" OR
     NOT out STREQUAL "")
    string(REPLACE ";" " " args "${ARGN}")
    message(FATAL_ERROR "${tool} ${args}: exit ${rc}, expected 2 naming "
                        "'${key}' with no output\n${out}${err}")
  endif()
endfunction()
file(WRITE "${WORK}/tiny.drlfs"
     "drlfs 1\nname = tiny\nbase = tiny.drlsc\nseeds = 1\n")
expect_exit(0 "${FLEETCTL}" describe spec=tiny.drlfs)
expect_unknown_key(shwo "${TRACECTL}" info file=tiny.drltrc shwo=8)
expect_unknown_key(cyle_limit "${SCENARIOCTL}" run file=tiny.drlsc
                   cyle_limit=5)
expect_unknown_key(cuont "${FLEETCTL}" describe spec=tiny.drlfs cuont=3)
expect_unknown_key(sise "${TABLE1}" sise=9)
# T1 has no smoke scale, so the smoke flag is a key it does not read.
expect_unknown_key(smoke "${TABLE1}" --smoke)

# A bench whose key fails to parse exits 1 with the reason, not an abort.
execute_process(COMMAND "${TABLE8}" --smoke epoch_cycles=-1
                WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR err MATCHES "terminate called" OR
   NOT err MATCHES "epoch_cycles")
  message(FATAL_ERROR "table8_fleet --smoke epoch_cycles=-1: exit ${rc}, "
                      "expected 1 naming epoch_cycles\n${out}${err}")
endif()
