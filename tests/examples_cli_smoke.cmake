# CLI smoke for the worked examples that no other case runs: each must exit
# 0. quickstart and phased_workload train, so they run at size=4 episodes=2;
# custom_controller reads size= only; region_config and trace_workload run
# at their defaults (trace_workload writes its capture into WORK).
#
#   cmake -DEXAMPLES=<examples binary dir> -DWORK=<scratch dir> \
#         -P tests/examples_cli_smoke.cmake
if(NOT EXAMPLES OR NOT WORK)
  message(FATAL_ERROR "pass -DEXAMPLES=<dir> -DWORK=<dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

foreach(run "quickstart;size=4;episodes=2"
            "phased_workload;size=4;episodes=2"
            "custom_controller;size=4"
            "region_config"
            "trace_workload")
  list(POP_FRONT run name)
  execute_process(COMMAND "${EXAMPLES}/${name}" ${run}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " args "${run}")
    message(FATAL_ERROR "${name} ${args}: exit ${rc}\n${out}\n${err}")
  endif()
endforeach()
