# Runs BIN with ARGS (a space-separated list) inside a fresh, empty DIR and
# fails unless it exits with EXPECT and leaves DIR empty — a usage error or
# --help must neither run the bench nor write its JSON.
#
#   cmake -DBIN=... -DARGS=--help -DEXPECT=0 -DDIR=... -P cli_check.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', expected ${EXPECT}")
endif()
file(GLOB left "${DIR}/*")
if(left)
  message(FATAL_ERROR "${BIN} ${ARGS}: wrote ${left}")
endif()
