# Run TOOL with the space-separated ARGS and require exit code 2 plus a
# usage line on stderr.
#   cmake -DTOOL=<exe> -DARGS="<flags>" -P expect_usage.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${arg_list}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${rc}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage: c4cam_bench")
  message(FATAL_ERROR "expected a usage line on stderr, got:\n${err}")
endif()
