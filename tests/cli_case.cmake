# ctest case: one neuroselect_solve (or gen_cnf) invocation and its expected
# outcome.
#
# Writes a two-variable satisfiable CNF into WORKDIR, runs the solver on it
# with ARGS (or, with NO_INSTANCE, runs SOLVE on ARGS alone) and asserts that
#   (a) the run exits with EXPECT_EXIT,
#   (b) stderr matches EXPECT_ERROR and stdout matches EXPECT_OUTPUT (each
#       checked only when given), and
#   (c) nothing reports undefined behaviour: a `runtime error:` line is what
#       a recovering UBSan build prints, so it fails the case at any exit.
#
# Variables (passed via -D): SOLVE, WORKDIR, ARGS (a ;-list), EXPECT_EXIT,
# and optionally EXPECT_ERROR and EXPECT_OUTPUT (regexes) and NO_INSTANCE.
# A run still going after 60 s fails the case (a hang is a failure).

foreach(required SOLVE WORKDIR EXPECT_EXIT)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "cli_case: ${required} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORKDIR})
set(instance)
if(NOT NO_INSTANCE)
  set(instance ${WORKDIR}/instance.cnf)
  file(WRITE ${instance} "p cnf 2 2\n1 2 0\n-1 2 0\n")
endif()

execute_process(COMMAND ${SOLVE} ${ARGS} ${instance}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE res
  TIMEOUT 60)
message(STATUS "exit ${res}\n${out}${err}")

if(NOT res EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "cli_case: expected exit ${EXPECT_EXIT}, got ${res}")
endif()
if(DEFINED EXPECT_ERROR AND NOT err MATCHES "${EXPECT_ERROR}")
  message(FATAL_ERROR
      "cli_case: no diagnostic matching \"${EXPECT_ERROR}\" on stderr")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR
      "cli_case: no line matching \"${EXPECT_OUTPUT}\" on stdout")
endif()
if("${out}${err}" MATCHES "runtime error:")
  message(FATAL_ERROR "cli_case: the run reported undefined behaviour")
endif()
