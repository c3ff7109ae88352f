# Command-line contract check, run as
#   cmake -DARGS=<exe>|<arg>|... -DEXPECT_EXIT=<code> -DEXPECT_TEXT=<text>
#         -DTIMEOUT=<s> -P expect_exit.cmake
# Passes only if the command exits with EXPECT_EXIT within TIMEOUT seconds
# and its stdout+stderr contains EXPECT_TEXT. ARGS is '|'-separated so it
# survives add_test() as a single argument.
string(REPLACE "|" ";" command "${ARGS}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT ${TIMEOUT})
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${code}'\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT_TEXT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output does not mention '${EXPECT_TEXT}':\n${out}${err}")
endif()
