# CLI smoke for the bench harness flags: table5_multitenant must print the
# same table for every spelling of the smoke flag (`--smoke`, `smoke`,
# `smoke=1`), and a bench asked to write its JSON to a path it cannot open
# must fail rather than exit 0 with no file.
#
#   cmake -DTABLE5=<table5_multitenant> -DTABLE4=<table4_scalability> \
#         -DPERF_SMOKE=<perf_smoke> -DWORK=<scratch dir> \
#         -P tests/bench_flags_cli_smoke.cmake
if(NOT TABLE5 OR NOT TABLE4 OR NOT PERF_SMOKE OR NOT WORK)
  message(FATAL_ERROR "pass -DTABLE5=<binary> -DTABLE4=<binary> "
                      "-DPERF_SMOKE=<binary> -DWORK=<dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(reference "")
foreach(flag "--smoke" "smoke" "smoke=1")
  execute_process(COMMAND "${TABLE5}" ${flag} --jobs 2
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "table5_multitenant ${flag} failed (${rc}):\n${err}")
  endif()
  if(reference STREQUAL "")
    set(reference "${out}")
  elseif(NOT out STREQUAL reference)
    message(FATAL_ERROR "table5_multitenant ${flag} printed:\n${out}\n"
                        "but --smoke printed:\n${reference}")
  endif()
endforeach()
if(NOT reference MATCHES "mesh 4x4")
  message(FATAL_ERROR "table5_multitenant --smoke did not run the 4x4 "
                      "smoke scale:\n${reference}")
endif()

# The parent directory does not exist, so the JSON file cannot be opened.
set(unwritable "${WORK}/missing_dir/out.json")
foreach(run "${TABLE4};--smoke;rows=4x4;--jobs;2"
            "${PERF_SMOKE};scale=0.01;repeats=1")
  execute_process(COMMAND ${run} "out=${unwritable}"
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${run} out=${unwritable} exited 0")
  endif()
  if(NOT err MATCHES "cannot write ${unwritable}")
    message(FATAL_ERROR "${run} did not name ${unwritable}:\n${err}")
  endif()
endforeach()
