# Drives the jockey_cli train -> predict -> run workflow end to end, including the
# persistent C(p, a) table cache: the first predict simulates and stores, the second
# must hit the cache and skip simulation with identical output.
set(TRACE ${CMAKE_CURRENT_BINARY_DIR}/cli_demo.trace)
set(CACHE_DIR ${CMAKE_CURRENT_BINARY_DIR}/cli_demo_cache)
file(REMOVE_RECURSE ${CACHE_DIR})
execute_process(COMMAND ${CLI} train ${SCRIPT} --trace ${TRACE} --tokens 25 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "train failed: ${rc}")
endif()
# The cache banner goes to stderr, so stdout carries only the predictions.
execute_process(COMMAND ${CLI} predict ${SCRIPT} ${TRACE} --deadline 30 --cache-dir ${CACHE_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE cold_out ERROR_VARIABLE cold_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "predict failed: ${rc}")
endif()
if(NOT cold_err MATCHES "simulated [0-9]+ runs")
  message(FATAL_ERROR "cold predict did not report simulation:\n${cold_err}")
endif()
execute_process(COMMAND ${CLI} predict ${SCRIPT} ${TRACE} --deadline 30 --cache-dir ${CACHE_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE warm_out ERROR_VARIABLE warm_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm predict failed: ${rc}")
endif()
if(NOT warm_err MATCHES "warm cache hit")
  message(FATAL_ERROR "second predict did not hit the table cache:\n${warm_err}")
endif()
# The cached table must produce the same predictions as the fresh simulation.
if(NOT cold_out STREQUAL warm_out)
  message(FATAL_ERROR "warm-cache predictions differ from cold run:\n--- cold ---\n${cold_out}\n--- warm ---\n${warm_out}")
endif()
execute_process(COMMAND ${CLI} run ${SCRIPT} ${TRACE} --deadline 30 --cache-dir ${CACHE_DIR}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run failed (SLO missed or error): ${rc}")
endif()
file(REMOVE_RECURSE ${CACHE_DIR})
