# CLI smoke for the observability taps: a traced and metered scheduled run
# over the two-tenant scenario cli_smoke.trace_and_scenario_runs leaves in
# TRACE_SCENARIO_WORK (its ctest fixture), and a traced faulted explorer run.
# Both must exit 0; scripts/check_trace.py must accept both Chrome traces and
# the metrics file, and the metrics run must leave a non-empty heatmap CSV.
# CI publishes the four artifacts from WORK.
#
#   cmake -DSCENARIOCTL=<scenarioctl> -DEXPLORER=<traffic_explorer> \
#         -DPYTHON=<python3> -DCHECK_TRACE=<scripts/check_trace.py> \
#         -DTRACE_SCENARIO_WORK=<dir holding mix.drlsc> -DWORK=<scratch dir> \
#         -P tests/observability_cli_smoke.cmake
if(NOT SCENARIOCTL OR NOT EXPLORER OR NOT PYTHON OR NOT CHECK_TRACE OR
   NOT TRACE_SCENARIO_WORK OR NOT WORK)
  message(FATAL_ERROR "pass -DSCENARIOCTL, -DEXPLORER, -DPYTHON, "
                      "-DCHECK_TRACE, -DTRACE_SCENARIO_WORK and -DWORK")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(scenario "${TRACE_SCENARIO_WORK}/mix.drlsc")
if(NOT EXISTS "${scenario}")
  message(FATAL_ERROR "no ${scenario}: run cli_smoke.trace_and_scenario_runs")
endif()

foreach(run
    "${SCENARIOCTL};run;file=${scenario};--trace-out=obs_trace.json;--metrics-out=obs_metrics.json;--trace-sample=1.0"
    "${EXPLORER};size=4;rate=0.05;fault_rate=0.01;fault_link=5:1;--workload;phased=0.5;--trace-out=obs_fault_trace.json"
    "${PYTHON};${CHECK_TRACE};obs_trace.json;obs_fault_trace.json;--metrics;obs_metrics.json")
  execute_process(COMMAND ${run}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " cmd "${run}")
    message(FATAL_ERROR "${cmd} failed (${rc}):\n${out}\n${err}")
  endif()
endforeach()

set(heatmap "${WORK}/obs_metrics_heatmap.csv")
if(NOT EXISTS "${heatmap}")
  message(FATAL_ERROR "the metered run wrote no ${heatmap}")
endif()
file(SIZE "${heatmap}" bytes)
if(bytes EQUAL 0)
  message(FATAL_ERROR "${heatmap} is empty")
endif()
