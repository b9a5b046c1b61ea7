# Compile-must-fail check, run as a ctest:
#
#   cmake -DBUILD_DIR=<build> -DCONFIG=<cfg> -DBAD_TARGET=<t> \
#         -DBAD_SOURCE=<file> -DCONTROL_TARGET=<t> -P expect_compile_fail.cmake
#
# BAD_TARGET must fail to build, with a compiler *error* naming
# unused-result at every line of BAD_SOURCE that ends in the comment
# `// want: unused-result`
# (so a warning, or an error on only some of the lines, does not pass).
# CONTROL_TARGET, the same code with the results used, must build.
foreach(var BUILD_DIR BAD_TARGET BAD_SOURCE CONTROL_TARGET)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_compile_fail.cmake: ${var} is not set")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --config "${CONFIG}"
          --target ${BAD_TARGET}
  RESULT_VARIABLE bad_result
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_out)
if(bad_result EQUAL 0)
  message(FATAL_ERROR "${BAD_TARGET} compiled, but must not:\n${bad_out}")
endif()

get_filename_component(bad_name ${BAD_SOURCE} NAME)
file(STRINGS ${BAD_SOURCE} lines)
set(line_no 0)
set(wanted 0)
foreach(line IN LISTS lines)
  math(EXPR line_no "${line_no} + 1")
  if(line MATCHES "// want: unused-result$")
    math(EXPR wanted "${wanted} + 1")
    if(NOT bad_out MATCHES "${bad_name}:${line_no}:[0-9]+: error: [^\n]*unused-result")
      message(FATAL_ERROR
        "no unused-result error at ${bad_name}:${line_no}:\n${bad_out}")
    endif()
  endif()
endforeach()
if(wanted EQUAL 0)
  message(FATAL_ERROR "${BAD_SOURCE} marks no line `// want: unused-result`")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --config "${CONFIG}"
          --target ${CONTROL_TARGET}
  RESULT_VARIABLE control_result
  OUTPUT_VARIABLE control_out
  ERROR_VARIABLE control_out)
if(NOT control_result EQUAL 0)
  message(FATAL_ERROR "control ${CONTROL_TARGET} failed:\n${control_out}")
endif()
message(STATUS "${BAD_TARGET}: ${wanted} unused-result error(s) as marked; "
               "${CONTROL_TARGET} builds")
