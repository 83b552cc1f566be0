# One example- or bench-CLI invocation checked against the CLI contract:
# its exit code, and regular expressions its stderr and stdout must match.
#
#   cmake -DCLI=<binary> "-DARGS=<args>" -DEXPECT_EXIT=<code>
#         [-DEXPECT_STDERR=<regex>] [-DEXPECT_STDOUT=<regex>]
#         -P cli_contract.cmake
#
# ARGS is one space-separated string (split with UNIX shell rules).

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${CLI}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 120)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${CLI} ${ARGS}: exit ${rc}, expected "
    "${EXPECT_EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${CLI} ${ARGS}: stderr does not match "
    "'${EXPECT_STDERR}'\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "${CLI} ${ARGS}: stdout does not match "
    "'${EXPECT_STDOUT}'\nstdout:\n${out}")
endif()
