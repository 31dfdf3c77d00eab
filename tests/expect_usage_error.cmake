# Runs one command line and passes only when it exits 2 with a diagnostic
# naming FLAG on stderr: how a tool must answer a malformed or
# out-of-range numeric flag (no crash, no hang, no silent wraparound).
#
#   cmake -DFLAG=--depth "-DCMD=prog|--depth|-1|scope.model" -P expect_usage_error.cmake
#
# CMD separates its arguments with '|' so the list survives add_test.
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'; stderr:\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}:\n${err}")
endif()
