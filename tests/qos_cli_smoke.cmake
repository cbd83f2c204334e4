# CLI smoke for the QoS paper row without bench binaries: the T6 bench at
# smoke scale (DRL-QoS vs DRL-aggregate vs static) saves its trained policy,
# then a QoS-annotated scenario over the DNN trace
# cli_smoke.trace_and_scenario_runs leaves in TRACE_SCENARIO_WORK (its ctest
# fixture) serves that policy through a `[controller] type = drl` schedule,
# described and run by scenarioctl. Each step must exit 0; T6's JSON is
# published by CI from WORK.
#
#   cmake -DTABLE6=<table6_qos> -DSCENARIOCTL=<scenarioctl> \
#         -DTRACE_SCENARIO_WORK=<dir holding dnn.drltrc> \
#         -DWORK=<scratch dir> -P tests/qos_cli_smoke.cmake
if(NOT TABLE6 OR NOT SCENARIOCTL OR NOT TRACE_SCENARIO_WORK OR NOT WORK)
  message(FATAL_ERROR "pass -DTABLE6, -DSCENARIOCTL, -DTRACE_SCENARIO_WORK "
                      "and -DWORK")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(trace "${TRACE_SCENARIO_WORK}/dnn.drltrc")
if(NOT EXISTS "${trace}")
  message(FATAL_ERROR "no ${trace}: run cli_smoke.trace_and_scenario_runs")
endif()

file(WRITE "${WORK}/qos_mix.drlsc" "drlsc 1
name = ci_qos_smoke
width = 4
height = 4
seed = 42
duration = 1000000
tenants = 2
tenant0.name = dnn
tenant0.workload = trace
tenant0.trace = ${trace}
tenant0.loop = true
tenant0.nodes = 0-15
tenant0.qos = latency_critical
tenant0.p95_target = 200
tenant1.name = background
tenant1.workload = steady
tenant1.rate = 0.05
tenant1.qos = background

[controller]
type = drl
policy = qos.policy
epoch_cycles = 256
epochs = 8
")

foreach(run
    "${TABLE6};--smoke;save_policy=qos.policy;out=TABLE6_smoke.json"
    "${SCENARIOCTL};describe;file=qos_mix.drlsc"
    "${SCENARIOCTL};run;file=qos_mix.drlsc")
  execute_process(COMMAND ${run}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " cmd "${run}")
    message(FATAL_ERROR "${cmd} failed (${rc}):\n${out}\n${err}")
  endif()
endforeach()
