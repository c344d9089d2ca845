# Generic end-to-end smoke test: run a binary and require exit code
# EXPECT_EXIT (default 0) and at least one output line matching
# EXPECT_REGEX. A run expected to succeed is matched on stdout (a data
# or summary line, so an example that prints only headers still
# fails); a run expected to fail is matched on stderr (the error
# itself, so a crash or a different error never passes). Files listed
# in EXPECT_ABSENT are removed before the run and must not exist after
# it (outputs a failing run must not write).
if(NOT DEFINED EXAMPLE_BIN OR NOT DEFINED EXPECT_REGEX)
  message(FATAL_ERROR "pass -DEXAMPLE_BIN=<binary> -DEXPECT_REGEX=<regex>")
endif()
if(NOT DEFINED EXPECT_EXIT)
  set(EXPECT_EXIT 0)
endif()

foreach(absent IN LISTS EXPECT_ABSENT)
  file(REMOVE "${absent}")
endforeach()

execute_process(COMMAND ${EXAMPLE_BIN}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)

if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${EXAMPLE_BIN} exited with ${rc}, expected ${EXPECT_EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(EXPECT_EXIT EQUAL 0)
  set(checked "${out}")
else()
  set(checked "${err}")
endif()
string(REGEX MATCH "${EXPECT_REGEX}" matched "${checked}")
if(matched STREQUAL "")
  message(FATAL_ERROR "${EXAMPLE_BIN} output did not match '${EXPECT_REGEX}':\n${checked}")
endif()
foreach(absent IN LISTS EXPECT_ABSENT)
  if(EXISTS "${absent}")
    message(FATAL_ERROR "${EXAMPLE_BIN} wrote ${absent}")
  endif()
endforeach()
