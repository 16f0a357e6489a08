# Runs one of the paper's table/figure benches and diffs its stdout
# against the checked-in golden (tests/data/paper/<bench>.txt):
#
#   cmake -DBENCH=<binary> -DGOLDEN=<golden.txt> -DOUTPUT=<out.txt>
#         -P tests/paper_golden.cmake
#
# The benches are deterministic (fixed seeds, no timings in their output),
# so any byte that moves is a changed paper number.
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUTPUT} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUTPUT}
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u ${GOLDEN} ${OUTPUT})
  message(FATAL_ERROR "${OUTPUT} differs from ${GOLDEN}; a PR that moves "
                      "a paper number says which and why in CHANGES.md")
endif()
