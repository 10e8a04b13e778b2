# ctest driver for ns_lint.
#
# Negative mode (mirrors the test_audit fault-injection style at the tool
# level): runs ns_lint over a seeded fixture tree under
# tests/fixtures/{archcheck,conlint,hotlint}/ and asserts that
#   (a) the run exits nonzero (exactly EXPECT_EXIT when that is set), and
#   (b) stdout names the expected rule as `[<EXPECT_RULE>]`, or, for a run
#       that must fail before any pack runs, stderr matches EXPECT_ERROR.
#
# Positive mode (EXPECT_CLEAN=<pack>): runs ns_lint over a real tree and
# asserts exit 0 and the pack's summary line reporting 0 violations.
#
# Variables (passed via -D): NS_LINT, ROOT, EXPECT_RULE or EXPECT_ERROR or
# EXPECT_CLEAN, EXPECT_EXIT, COMPILER, JSON.

foreach(required NS_LINT ROOT)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "lint_case: ${required} not set")
  endif()
endforeach()

set(extra_args)
if(EXPECT_RULE STREQUAL "self-contained")
  # Only the self-contained rule shells out to the compiler; the others are
  # pure text and graph checks and must fire without one. (The real tree's
  # headers are compiled by the build's ns_header_tus gate instead.)
  list(APPEND extra_args --compile-headers --compiler "${COMPILER}")
endif()
if(DEFINED JSON)
  list(APPEND extra_args --json "${JSON}")
endif()

execute_process(
  COMMAND "${NS_LINT}" --root "${ROOT}" ${extra_args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE res)
message(STATUS "ns_lint exit ${res}\n${out}${err}")

if(DEFINED EXPECT_CLEAN)
  if(NOT res EQUAL 0)
    message(FATAL_ERROR "lint_case: unexpected exit ${res} on ${ROOT}")
  endif()
  if(NOT out MATCHES "ns_lint: ${EXPECT_CLEAN}: [^\n]*, 0 violation\\(s\\)")
    message(FATAL_ERROR
        "lint_case: no clean ${EXPECT_CLEAN} summary line on ${ROOT}")
  endif()
  return()
endif()

if(res EQUAL 0 OR (DEFINED EXPECT_EXIT AND NOT res EQUAL EXPECT_EXIT))
  message(FATAL_ERROR "lint_case: unexpected exit ${res} on ${ROOT}")
endif()
if(DEFINED EXPECT_RULE AND NOT out MATCHES "\\[${EXPECT_RULE}\\]")
  message(FATAL_ERROR
      "lint_case: ns_lint exited ${res} but emitted no "
      "[${EXPECT_RULE}] diagnostic")
endif()
if(DEFINED EXPECT_ERROR AND NOT err MATCHES "${EXPECT_ERROR}")
  message(FATAL_ERROR
      "lint_case: ns_lint exited ${res} without the diagnostic "
      "\"${EXPECT_ERROR}\"")
endif()
