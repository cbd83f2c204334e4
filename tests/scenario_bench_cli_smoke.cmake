# CLI smoke for the scenario flows over the inputs
# cli_smoke.trace_and_scenario_runs leaves in TRACE_SCENARIO_WORK (its ctest
# fixture): tracectl stats inspects the DNN trace, the explorer runs the
# two-tenant mix.drlsc as its workload, and the T5 interference bench at
# smoke scale writes its per-tenant JSON. Each must exit 0, and the JSON
# (published by CI from WORK) must be non-empty.
#
#   cmake -DTRACECTL=<tracectl> -DEXPLORER=<traffic_explorer> \
#         -DTABLE5=<table5_multitenant> \
#         -DTRACE_SCENARIO_WORK=<dir holding dnn.drltrc and mix.drlsc> \
#         -DWORK=<scratch dir> -P tests/scenario_bench_cli_smoke.cmake
if(NOT TRACECTL OR NOT EXPLORER OR NOT TABLE5 OR NOT TRACE_SCENARIO_WORK OR
   NOT WORK)
  message(FATAL_ERROR "pass -DTRACECTL, -DEXPLORER, -DTABLE5, "
                      "-DTRACE_SCENARIO_WORK and -DWORK")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

foreach(input dnn.drltrc mix.drlsc)
  if(NOT EXISTS "${TRACE_SCENARIO_WORK}/${input}")
    message(FATAL_ERROR "no ${TRACE_SCENARIO_WORK}/${input}: run "
                        "cli_smoke.trace_and_scenario_runs")
  endif()
endforeach()

set(json "${WORK}/TABLE5_smoke.json")
foreach(run
    "${TRACECTL};stats;file=${TRACE_SCENARIO_WORK}/dnn.drltrc;top=4"
    "${EXPLORER};--workload;scenario=${TRACE_SCENARIO_WORK}/mix.drlsc"
    "${TABLE5};--smoke;out=${json}")
  execute_process(COMMAND ${run}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " cmd "${run}")
    message(FATAL_ERROR "${cmd} failed (${rc}):\n${out}\n${err}")
  endif()
endforeach()

if(NOT EXISTS "${json}")
  message(FATAL_ERROR "table5_multitenant --smoke wrote no ${json}")
endif()
file(SIZE "${json}" bytes)
if(bytes EQUAL 0)
  message(FATAL_ERROR "${json} is empty")
endif()
