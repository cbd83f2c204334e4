# CLI smoke for the train-then-serve flow: `scenarioctl train` at toy size,
# then `scenarioctl policy` on the checkpoint it wrote (its fingerprint must
# match the version train printed), and a truncated copy must be rejected.
# A second policy is trained with aggregate features (qos_features=0) and
# both are served under their pins: a `[controller] type = drl` scheduled
# run (the right pin runs, a wrong one is refused naming the fingerprint),
# and a pinned `fleetctl run` whose every result file records the served
# policy version, while a stale fleet pin is refused before any point runs.
#
#   cmake -DSCENARIOCTL=<scenarioctl binary> -DFLEETCTL=<fleetctl binary> \
#         -DWORK=<scratch dir> -P tests/policy_cli_smoke.cmake
if(NOT SCENARIOCTL OR NOT FLEETCTL OR NOT WORK)
  message(FATAL_ERROR
          "pass -DSCENARIOCTL=<binary> -DFLEETCTL=<binary> -DWORK=<dir>")
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

# Runs `tool` in WORK; exit code 0 when `expect_rc` is 0, else any nonzero.
function(run_tool tool expect_rc out_var)
  execute_process(COMMAND "${tool}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if((expect_rc EQUAL 0 AND NOT rc EQUAL 0) OR
     (NOT expect_rc EQUAL 0 AND rc EQUAL 0))
    message(FATAL_ERROR
            "${tool} ${ARGN}: exit ${rc}, expected ${expect_rc}\n"
            "${out}${err}")
  endif()
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

function(scenarioctl expect_rc out_var)
  run_tool("${SCENARIOCTL}" ${expect_rc} out ${ARGN})
  set(${out_var} "${out}" PARENT_SCOPE)
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

# Aggregate-feature policy (the feature set a fleet serves), trained on two
# actor threads.
scenarioctl(0 trained_agg train file=toy.drlsc out=agg.drlpol episodes=2
            round=2 actors=2 eval_every=0 epochs=4 epoch_cycles=128
            qos_features=0)
if(NOT trained_agg MATCHES "policy version ([0-9a-f]+)")
  message(FATAL_ERROR "train printed no policy version:\n${trained_agg}")
endif()
set(agg_version "${CMAKE_MATCH_1}")
if(agg_version STREQUAL version)
  message(FATAL_ERROR "both policies have fingerprint ${version}")
endif()

# Scheduled run serving the QoS policy: the right pin runs, the other
# policy's fingerprint is refused with a message naming the file's own.
file(READ "${WORK}/toy.drlsc" toy)
file(WRITE "${WORK}/pinned.drlsc" "${toy}
[controller]
type = drl
policy = toy.drlpol
epoch_cycles = 128
epochs = 4
")
scenarioctl(0 served run file=pinned.drlsc pin=${version})
scenarioctl(1 refused run file=pinned.drlsc pin=${agg_version})
if(NOT refused MATCHES "fingerprint ${version} does not match the pinned version ${agg_version}")
  message(FATAL_ERROR "wrong pin refused without naming the fingerprint:\n"
                      "${refused}")
endif()

# Pinned fleet over two seed replicas: every result file records the pin.
file(WRITE "${WORK}/train_fleet.drlfs" "drlfs 1
name = policy_smoke_fleet
base = toy.drlsc
seeds = 2
")
set(fleet_args spec=train_fleet.drlfs controller=drl policy=agg.drlpol
    qos_features=0 epochs=4 epoch_cycles=128 jobs=2)
run_tool("${FLEETCTL}" 0 fleet_out run ${fleet_args} results=fleet_res
         policy_pin=${agg_version})
file(GLOB results "${WORK}/fleet_res/*.drlfr")
list(LENGTH results n_results)
if(NOT n_results EQUAL 2)
  message(FATAL_ERROR "pinned fleet wrote ${n_results} result files, "
                      "expected 2:\n${fleet_out}")
endif()
foreach(result IN LISTS results)
  file(STRINGS "${result}" pinned REGEX "^policy_version = ${agg_version}$")
  if(NOT pinned)
    message(FATAL_ERROR "${result} does not record policy_version = "
                        "${agg_version}")
  endif()
endforeach()

# A stale pin is refused up front by the fleet's own check (the `fleet:`
# message), not point by point: no point runs, no result file appears.
run_tool("${FLEETCTL}" 1 stale run ${fleet_args} results=fleet_stale
         policy_pin=0000000000000000)
if(NOT stale MATCHES "fleet: policy fingerprint ${agg_version} does not match the pinned version 0000000000000000")
  message(FATAL_ERROR "stale pin refused without naming the fingerprint:\n"
                      "${stale}")
endif()
file(GLOB stale_results "${WORK}/fleet_stale/*.drlfr")
if(stale_results)
  message(FATAL_ERROR "a stale pin still ran points: ${stale_results}")
endif()
