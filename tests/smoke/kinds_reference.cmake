# Fails when the key reference in a doc differs from what
# `powertcp_run --kinds` prints. The doc carries the output verbatim in
# the fenced block that follows the line holding MARKER.
#
#   cmake -DRUN_BIN=build/powertcp_run -DDOC=docs/reproducing.md
#         -DMARKER="<!-- powertcp_run --kinds -->" -P kinds_reference.cmake
if(NOT DEFINED RUN_BIN OR NOT DEFINED DOC OR NOT DEFINED MARKER)
  message(FATAL_ERROR "pass -DRUN_BIN=<powertcp_run> -DDOC=<doc> -DMARKER=<line>")
endif()

execute_process(COMMAND ${RUN_BIN} --kinds
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${RUN_BIN} --kinds exited with ${rc}")
endif()

file(READ "${DOC}" doc)
string(FIND "${doc}" "${MARKER}\n```text\n" begin)
if(begin EQUAL -1)
  message(FATAL_ERROR "${DOC} has no '${MARKER}' line followed by a ```text block")
endif()
string(LENGTH "${MARKER}\n```text\n" skip)
math(EXPR begin "${begin} + ${skip}")
string(SUBSTRING "${doc}" ${begin} -1 rest)
string(FIND "${rest}" "```\n" end)
string(SUBSTRING "${rest}" 0 ${end} documented)

if(NOT documented STREQUAL actual)
  file(WRITE kinds_reference.expected "${actual}")
  file(WRITE kinds_reference.documented "${documented}")
  message(FATAL_ERROR
          "${DOC} is out of date with `powertcp_run --kinds`; paste the "
          "command's output into the block after '${MARKER}'. Compare:\n"
          "  diff ${CMAKE_CURRENT_BINARY_DIR}/kinds_reference.documented "
          "${CMAKE_CURRENT_BINARY_DIR}/kinds_reference.expected")
endif()
