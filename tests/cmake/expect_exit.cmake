# Runs one command and checks its exit code and output, as a ctest:
#
#   cmake -DEXPECT_CODE=<n> -DEXPECT_REGEX=<re> -P expect_exit.cmake -- <cmd...>
#
# Passes only when the command exits with exactly EXPECT_CODE and its
# combined stdout/stderr matches EXPECT_REGEX.
set(cmd)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(seen_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT_CODE OR NOT DEFINED EXPECT_REGEX)
  message(FATAL_ERROR "usage: cmake -DEXPECT_CODE=<n> -DEXPECT_REGEX=<re> "
                      "-P expect_exit.cmake -- <cmd...>")
endif()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT result STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit ${result}, want ${EXPECT_CODE}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}':\n${out}")
endif()
