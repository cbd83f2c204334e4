# CLI smoke for the fleet resumability contract: describe and generate a
# tiny space (the generated point must validate), run it as two shards into
# one results directory, score it, delete two result files (the state a
# killed run leaves), resume at another jobs count and rescore. The two
# scorecards must be byte-identical, the worst-k heatmaps non-empty, and
# every run must print how many power references it calibrated.
#
#   cmake -DFLEETCTL=<fleetctl binary> -DSCENARIOCTL=<scenarioctl binary> \
#         -DWORK=<scratch dir> -P tests/fleet_cli_smoke.cmake
#
# WORK keeps fleet_score.json and fleet_score_resumed.json for further
# checks (scripts/check_scorecard.py --expect-complete).
if(NOT FLEETCTL OR NOT SCENARIOCTL OR NOT WORK)
  message(FATAL_ERROR
          "pass -DFLEETCTL=<binary> -DSCENARIOCTL=<binary> -DWORK=<dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/fleet_base.drlsc" "drlsc 1
name = ci_fleet_smoke
width = 4
height = 4
seed = 5
duration = 20000
tenants = 2
tenant0.name = critical
tenant0.workload = steady
tenant0.rate = 0.02
tenant0.qos = latency_critical
tenant0.p95_target = 300
tenant1.name = background
tenant1.workload = steady
tenant1.rate = 0.04
tenant1.qos = background

[churn]
seed = 11
arrival_rate = 0.0002
capacity = 2
templates = 1
template0.tenant = 1
template0.lifetime = exponential
template0.lifetime_mean = 5000
")
# Four points: two seed replicas x two background rates. The rate sets the
# calibration's peak load, so no two points share a power reference.
file(WRITE "${WORK}/fleet.drlfs" "drlfs 1
name = ci_fleet
base = fleet_base.drlsc
seeds = 2
axes = 1
axis0.key = tenant1.rate
axis0.values = 0.03,0.06
")

function(run_tool tool out_var)
  execute_process(COMMAND "${tool}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tool} ${ARGN}: exit ${rc}\n${out}${err}")
  endif()
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

# Runs `fleetctl <args>` and checks the ran/skipped/calibration summary.
function(fleet_run summary)
  run_tool("${FLEETCTL}" out ${ARGN})
  string(FIND "${out}" "${summary}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "fleetctl ${ARGN} did not print '${summary}':\n"
                        "${out}")
  endif()
endfunction()

run_tool("${FLEETCTL}" described describe spec=fleet.drlfs)
run_tool("${FLEETCTL}" generated generate spec=fleet.drlfs out=fleet_gen)
run_tool("${SCENARIOCTL}" validated validate file=fleet_gen/point-0.drlsc)

fleet_run("ran 2, skipped 0 already-complete, 2 power calibrations (jobs=2)"
          run spec=fleet.drlfs results=fleet_res shard=0 shards=2 jobs=2)
fleet_run("ran 2, skipped 0 already-complete, 2 power calibrations (jobs=2)"
          run spec=fleet.drlfs results=fleet_res shard=1 shards=2 jobs=2)
run_tool("${FLEETCTL}" scored
         score spec=fleet.drlfs results=fleet_res out=fleet_score.json)

file(GLOB killed "${WORK}/fleet_res/result-0-*.drlfr"
                 "${WORK}/fleet_res/result-2-*.drlfr")
list(LENGTH killed n_killed)
if(NOT n_killed EQUAL 2)
  message(FATAL_ERROR "expected result files 0 and 2, found: ${killed}")
endif()
file(REMOVE ${killed})

fleet_run("ran 2, skipped 2 already-complete, 2 power calibrations (jobs=4)"
          resume spec=fleet.drlfs results=fleet_res jobs=4)
run_tool("${FLEETCTL}" rescored
         score spec=fleet.drlfs results=fleet_res
         out=fleet_score_resumed.json --metrics-out=fleet_heat)

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK}/fleet_score.json"
                        "${WORK}/fleet_score_resumed.json"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "the resumed scorecard differs from the first one")
endif()

file(GLOB heatmaps "${WORK}/fleet_heat/worst-*_heatmap.csv")
if(NOT heatmaps)
  message(FATAL_ERROR "score --metrics-out wrote no worst-k heatmap")
endif()
foreach(heatmap ${heatmaps})
  file(SIZE "${heatmap}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "empty heatmap ${heatmap}")
  endif()
endforeach()
