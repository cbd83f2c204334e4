# CLI smoke for the fault layer's bench and explorer flows: the T7
# degradation bench at smoke scale must exit 0 and leave a non-empty JSON
# with its metrics block (published by CI from this directory), and the
# explorer must finish a faulted load sweep (transient link corruption plus
# a permanently dead link) with exit code 0.
#
#   cmake -DTABLE7=<table7_faults> -DEXPLORER=<traffic_explorer> \
#         -DWORK=<scratch dir> -P tests/fault_cli_smoke.cmake
if(NOT TABLE7 OR NOT EXPLORER OR NOT WORK)
  message(FATAL_ERROR "pass -DTABLE7=<binary> -DEXPLORER=<binary> "
                      "-DWORK=<dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(json "${WORK}/TABLE7_smoke.json")
foreach(run "${TABLE7};--smoke;--jobs;2;out=${json}"
            "${EXPLORER};size=4;rate=0.05;fault_rate=0.01;fault_link=5:1")
  execute_process(COMMAND ${run}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${run} failed (${rc}):\n${out}\n${err}")
  endif()
endforeach()

if(NOT EXISTS "${json}")
  message(FATAL_ERROR "table7_faults --smoke wrote no ${json}")
endif()
file(READ "${json}" text)
if(NOT text MATCHES "\"bench\": \"table7_faults\"" OR
   NOT text MATCHES "\"metrics\": {\n    \"")
  message(FATAL_ERROR "${json} is empty or has no metrics:\n${text}")
endif()
