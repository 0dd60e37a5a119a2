# Runs ${CLI} ${ARGS} and passes only when the command exits 1, its stderr
# contains ${EXPECT} and, when ${ABSENT} is set, its stdout lacks ${ABSENT}.
# Usage:
#   cmake -DCLI=<exe> "-DARGS=<args>" "-DEXPECT=<text>" ["-DABSENT=<text>"]
#         -P expect_cli_error.cmake
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${argv}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${err}")
endif()
if(NOT "${ABSENT}" STREQUAL "")
  string(FIND "${out}" "${ABSENT}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "stdout contains '${ABSENT}':\n${out}")
  endif()
endif()
