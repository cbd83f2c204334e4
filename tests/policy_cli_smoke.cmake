# CLI smoke for the policy flow CI runs: `scenarioctl train` at toy size,
# then `scenarioctl policy` on the checkpoint it wrote (its fingerprint must
# match the version train printed), and a truncated copy must be rejected.
#
#   cmake -DSCENARIOCTL=<scenarioctl binary> -DWORK=<scratch dir> \
#         -P tests/policy_cli_smoke.cmake
if(NOT SCENARIOCTL OR NOT WORK)
  message(FATAL_ERROR "pass -DSCENARIOCTL=<binary> and -DWORK=<dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/toy.drlsc" "drlsc 1
name = policy_smoke
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
")

function(scenarioctl expect_rc out_var)
  execute_process(COMMAND "${SCENARIOCTL}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expect_rc)
    message(FATAL_ERROR
            "scenarioctl ${ARGN}: exit ${rc}, expected ${expect_rc}\n"
            "${out}${err}")
  endif()
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

scenarioctl(0 trained train file=toy.drlsc out=toy.drlpol episodes=2 round=2
            actors=1 eval_every=0 epochs=4 epoch_cycles=128)
if(NOT trained MATCHES "policy version ([0-9a-f]+)")
  message(FATAL_ERROR "train printed no policy version:\n${trained}")
endif()
set(version "${CMAKE_MATCH_1}")

scenarioctl(0 checked policy file=toy.drlpol)
if(NOT checked MATCHES "^${version}  toy.drlpol  # obs [0-9]+ actions 36 ")
  message(FATAL_ERROR "policy output does not carry version ${version}:\n"
                      "${checked}")
endif()

file(READ "${WORK}/toy.drlpol" blob)
string(LENGTH "${blob}" size)
math(EXPR half "${size} / 2")
string(SUBSTRING "${blob}" 0 ${half} truncated)
file(WRITE "${WORK}/truncated.drlpol" "${truncated}")
scenarioctl(1 rejected policy file=truncated.drlpol)
if(NOT rejected MATCHES "truncated.drlpol: ")
  message(FATAL_ERROR "truncated checkpoint rejected without a diagnostic "
                      "naming it:\n${rejected}")
endif()
