# Run TOOL with ARGS and require what every tool does with malformed
# input from its command line: its usage text on stderr, nothing on
# stdout and exit status 2.
#
#   cmake -DTOOL=<binary> "-DARGS=<arg;arg;...>" -P expect_usage.cmake
execute_process(COMMAND ${TOOL} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit status 2, got '${rc}'\n"
                        "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "^usage: ")
    message(FATAL_ERROR "expected the usage text on stderr, got: ${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "expected nothing on stdout, got: ${out}")
endif()
