# Runs one bench and compares its stdout with a checked-in golden file.
#
#   cmake -DBENCH=<exe> [-DARGS="<args>"] -DGOLDEN=<file> -DOUT=<file>
#         [-DUPDATE=ON] -P check.cmake
#
# Fails if the bench exits non-zero or its stdout differs from GOLDEN. With
# UPDATE=ON it rewrites GOLDEN from the run instead of comparing.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${status}")
endif()
if(UPDATE)
  execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${OUT} ${GOLDEN})
  message(STATUS "updated ${GOLDEN}")
  return()
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${OUT})
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} ${ARGS} differs from ${GOLDEN}; "
                      "rebuild the update-goldens target if the change is "
                      "intended")
endif()
