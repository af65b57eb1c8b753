# Runs the command given after `--` and fails unless it exits with EXPECT
# and, when MATCH is set, its stderr matches that regex:
#   cmake -DEXPECT=64 -DMATCH=--precision -P expect_exit.cmake -- cmd args...
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 0 ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit ${rc}, want ${EXPECT}: ${err}")
endif()
if(DEFINED MATCH AND NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "stderr does not match '${MATCH}': ${err}")
endif()
