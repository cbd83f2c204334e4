# CLI smoke for the trace and scenario flows: generate a DNN task graph,
# convert it to the binary format, inspect it and replay both files (the two
# replays must print identical tables), replay an all-reduce ring at twice
# the rate, then author a two-tenant scenario over the DNN trace and
# validate, describe and run it. A run that hits its cycle limit must exit 1
# and say so, in both tools.
#
#   cmake -DTRACECTL=<tracectl binary> -DSCENARIOCTL=<scenarioctl binary> \
#         -DWORK=<scratch dir> -P tests/trace_scenario_cli_smoke.cmake
#
# WORK keeps dnn.drltrc and mix.drlsc for further runs over the same inputs.
if(NOT TRACECTL OR NOT SCENARIOCTL OR NOT WORK)
  message(FATAL_ERROR
          "pass -DTRACECTL=<binary> -DSCENARIOCTL=<binary> -DWORK=<dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs `tool args...` in WORK; the exit code must be `expect_rc`.
function(run_tool expect_rc tool out_var)
  execute_process(COMMAND "${tool}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expect_rc)
    string(REPLACE ";" " " args "${ARGN}")
    message(FATAL_ERROR "${tool} ${args}: exit ${rc}, expected ${expect_rc}\n"
                        "${out}${err}")
  endif()
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

# Everything after the first line (which names the replayed file).
function(table_of text out_var)
  string(FIND "${text}" "\n" eol)
  math(EXPR start "${eol} + 1")
  string(SUBSTRING "${text}" ${start} -1 table)
  set(${out_var} "${table}" PARENT_SCOPE)
endfunction()

function(expect_cycle_limit text what)
  string(FIND "${text}" "[HIT CYCLE LIMIT]" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${what} did not report its cycle limit:\n${text}")
  endif()
endfunction()

# --- traces ----------------------------------------------------------------
run_tool(0 "${TRACECTL}" out generate kind=dnn nodes=16 out=smoke.drltrc)
run_tool(0 "${TRACECTL}" out convert in=smoke.drltrc out=smoke.drltrb)
run_tool(0 "${TRACECTL}" out info file=smoke.drltrb show=4)
run_tool(0 "${TRACECTL}" binary replay file=smoke.drltrb size=4)
run_tool(0 "${TRACECTL}" text replay file=smoke.drltrc size=4)
table_of("${binary}" binary_table)
table_of("${text}" text_table)
if(NOT binary_table STREQUAL text_table)
  message(FATAL_ERROR "the .drltrb and .drltrc replays differ:\n"
                      "${binary}\n${text}")
endif()
run_tool(0 "${TRACECTL}" out generate kind=allreduce nodes=16 out=ring.drltrc)
run_tool(0 "${TRACECTL}" out replay file=ring.drltrc size=4 scale=2.0)
run_tool(1 "${TRACECTL}" limited replay file=smoke.drltrb size=4
         cycle_limit=10)
expect_cycle_limit("${limited}" "tracectl replay cycle_limit=10")

# --- scenarios -------------------------------------------------------------
run_tool(0 "${TRACECTL}" out generate kind=dnn nodes=16 out=dnn.drltrc)
file(WRITE "${WORK}/mix.drlsc" "drlsc 1
name = ci_smoke
width = 4
height = 4
seed = 42
tenants = 2
tenant0.name = dnn
tenant0.workload = trace
tenant0.trace = dnn.drltrc
tenant1.name = background
tenant1.workload = steady
tenant1.rate = 0.04
tenant1.stop = 20000
")
run_tool(0 "${SCENARIOCTL}" out validate file=mix.drlsc)
run_tool(0 "${SCENARIOCTL}" out describe file=mix.drlsc)
run_tool(0 "${SCENARIOCTL}" out run file=mix.drlsc)
run_tool(1 "${SCENARIOCTL}" limited run file=mix.drlsc cycle_limit=10)
expect_cycle_limit("${limited}" "scenarioctl run cycle_limit=10")
