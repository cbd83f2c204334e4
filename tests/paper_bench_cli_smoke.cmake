# CLI smoke for the paper's T1-T3 and F1-F5 benches at CI scale: the bench
# NAME must exit 0 and print exactly the stdout pinned below by its SHA-256.
# A change that moves a pin names the bench and the reason in CHANGES.md, as
# with the golden determinism hashes. fig1, fig3, fig5 and T2 get an
# explicit jobs=2, since their output names the worker count; every other
# number is bit-identical at any jobs value.
#
#   cmake -DBENCH=<binary> -DNAME=<bench name> -P tests/paper_bench_cli_smoke.cmake
if(NOT BENCH OR NOT NAME)
  message(FATAL_ERROR "pass -DBENCH=<binary> -DNAME=<bench name>")
endif()

set(table1_power_savings_args size=4 episodes=2)
set(table1_power_savings_sha256
    df7ec4f1dea78c21dc9ffecde979a20c123ef0891b6e70792535efc5fb12bd6e)
set(table2_controller_compare_args size=4 episodes=2 jobs=2)
set(table2_controller_compare_sha256
    662a2c24d0e4f0481dd0d57284bfc908fcbdda6b432880ecb2566aac069cf260)
set(table3_ablation_args size=4 episodes=2)
set(table3_ablation_sha256
    f30f3e174bcce879897aed79ad329bd01f4a19de598f6821f7091453a3c34571)
set(fig1_load_latency_args size=4 episodes=2 jobs=2)
set(fig1_load_latency_sha256
    0c783e432a7fd45f7c2d33ca89e1edac873e3722526575efcaf9cb606732599e)
set(fig2_adversarial_latency_args size=4 episodes=2)
set(fig2_adversarial_latency_sha256
    b29270c412bc58d7f052e70277f8b81798e54c237a7b07ac1dba5e7d2e4f5e6d)
set(fig3_learning_curve_args size=4 episodes=2 jobs=2)
set(fig3_learning_curve_sha256
    3c971a0c0ac29be3e2f73df119433d3a18f73522a01024033ec459f2c8b74224)
set(fig4_config_timeline_args size=4 episodes=2)
set(fig4_config_timeline_sha256
    6787144a1991a2f2bebdba526e9e890f009dc1c80745455709caa2cd1246fab3)
# F5 trains nothing, so it takes no episodes= key.
set(fig5_throughput_args size=4 jobs=2)
set(fig5_throughput_sha256
    e1ed05d89db102ba83ed3ab844a59d4e0ece3109edc7273f0dd174b3a00bda84)

if(NOT DEFINED ${NAME}_sha256)
  message(FATAL_ERROR "no stdout pin for ${NAME}")
endif()
execute_process(COMMAND "${BENCH}" ${${NAME}_args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(REPLACE ";" " " args "${${NAME}_args}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} ${args}: exit ${rc}\n${err}")
endif()
string(SHA256 digest "${out}")
if(NOT digest STREQUAL "${${NAME}_sha256}")
  message(FATAL_ERROR "${NAME} ${args}: stdout SHA-256 ${digest}, pinned "
                      "${${NAME}_sha256}:\n${out}")
endif()
