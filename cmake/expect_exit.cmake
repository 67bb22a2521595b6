# Runs one command and checks how it ends: ctest -P helper behind the
# launcher exit-code tests (CMakeLists.txt, "Launcher exit codes").
#
#   cmake -DCOMMAND="prog|arg1|arg2" -DEXPECT_CODE=2 -DEXPECT_OUTPUT=regex
#         -P expect_exit.cmake
#
# COMMAND separates its arguments with '|' (a ';' would split the -D value).
# Fails unless the exit code equals EXPECT_CODE and stdout + stderr match
# EXPECT_OUTPUT.
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_CODE)
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT_CODE}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
