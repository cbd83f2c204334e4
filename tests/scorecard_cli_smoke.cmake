# Shape check of the two scorecards cli_smoke.fleet_shard_resume leaves in
# FLEET_WORK (its ctest fixture): scripts/check_scorecard.py must accept
# both with --expect-complete, i.e. the resumed fleet scored every point.
#
#   cmake -DPYTHON=<python3> -DCHECK_SCORECARD=<scripts/check_scorecard.py> \
#         -DFLEET_WORK=<dir holding the scorecards> \
#         -P tests/scorecard_cli_smoke.cmake
if(NOT PYTHON OR NOT CHECK_SCORECARD OR NOT FLEET_WORK)
  message(FATAL_ERROR "pass -DPYTHON, -DCHECK_SCORECARD and -DFLEET_WORK")
endif()

set(cards "${FLEET_WORK}/fleet_score.json"
          "${FLEET_WORK}/fleet_score_resumed.json")
foreach(card ${cards})
  if(NOT EXISTS "${card}")
    message(FATAL_ERROR "no ${card}: run cli_smoke.fleet_shard_resume")
  endif()
endforeach()
execute_process(COMMAND "${PYTHON}" "${CHECK_SCORECARD}" --expect-complete
                        ${cards}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_scorecard.py --expect-complete failed (${rc}):\n"
                      "${out}${err}")
endif()
