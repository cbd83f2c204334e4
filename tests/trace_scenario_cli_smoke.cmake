# CLI smoke for the trace and scenario flows: generate a DNN task graph,
# convert it to the binary format, inspect it and replay both files (the two
# replays must print identical tables), replay an all-reduce ring at twice
# the rate, then author a two-tenant scenario over the DNN trace and
# validate, describe and run it. A run that hits its cycle limit must exit 1
# and say so, in both tools. Last, a [faults]-annotated scenario (transient
# link corruption plus a scheduled link death) must describe its fault
# schedule and report every fault metric row when run.
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
# The first records of a small DNN graph, dependents included: the deps
# column names predecessor ids, as the file stores them (captured before
# traces held positions in memory). Trailing blanks are not compared.
run_tool(0 "${TRACECTL}" out generate kind=dnn nodes=16 layers=3 tiles=2
         batches=2 out=small.drltrb)
run_tool(0 "${TRACECTL}" info info file=small.drltrb show=8)
string(REGEX REPLACE " +\n" "\n" info "${info}")
set(expected_info [=[trace: small.drltrb
  nodes          16
  default_length 8 flits
  records        16
  roots          8
  dep_edges      16
  span           64.0 core cycles (roots)
  offered_rate   0.00781 root pkts/node/cycle
  total_flits    128
id  src  dst  time   flits  deps
----------------------------------
1   0    2    0.00   8      -
2   0    3    0.00   8      -
3   1    2    0.00   8      -
4   1    3    0.00   8      -
5   2    4    32.00  8      1,3
6   2    5    32.00  8      1,3
7   3    4    32.00  8      2,4
8   3    5    32.00  8      2,4
]=])
if(NOT info STREQUAL expected_info)
  message(FATAL_ERROR "tracectl info show=8 changed:\n${info}")
endif()
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

# --- faults ----------------------------------------------------------------
file(WRITE "${WORK}/faulty.drlsc" "drlsc 1
name = ci_fault_smoke
width = 4
height = 4
seed = 42
duration = 20000
tenants = 1
tenant0.workload = steady
tenant0.rate = 0.05
tenant0.stop = 20000

[faults]
seed = 7
link_fault_rate = 0.005
retry_timeout = 48
events = 1
event0.at_cycle = 5000
event0.kind = link_down
event0.node = 5
event0.port = 1
")
run_tool(0 "${SCENARIOCTL}" out validate file=faulty.drlsc)
run_tool(0 "${SCENARIOCTL}" described describe file=faulty.drlsc)
if(NOT described MATCHES "\nfaults: seed 7, link_fault_rate 0.005000"
   OR NOT described MATCHES "event0: cycle 5000 link_down node 5 port 1")
  message(FATAL_ERROR "describe did not show the fault schedule:\n"
                      "${described}")
endif()
run_tool(0 "${SCENARIOCTL}" faulted run file=faulty.drlsc)
# Corruption and the dead link must show in the counters; this schedule
# loses no packet, but the row must still be printed.
foreach(row flits_dropped retries rerouted_hops)
  if(NOT faulted MATCHES "\n${row} +[1-9][0-9]* *\n")
    message(FATAL_ERROR "run printed no nonzero ${row} row:\n${faulted}")
  endif()
endforeach()
if(NOT faulted MATCHES "\npackets_lost +[0-9]+ *\n")
  message(FATAL_ERROR "run printed no packets_lost row:\n${faulted}")
endif()
